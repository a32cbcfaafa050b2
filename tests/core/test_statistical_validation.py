"""Hoeffding-bounded cross-validation of sampled estimates vs exact oracles.

The engine estimates P∀NN/P∃NN/PCNN probabilities from ``n`` sampled worlds;
Hoeffding's inequality (Section 5.2.3, :mod:`repro.analysis.hoeffding`)
bounds the estimation error: ``P(|p̂ - p| >= eps) <= 2 exp(-2 n eps²)``.
These tests pick ``eps`` as the two-sided ``1 - 1e-7`` confidence radius, so
for the fixed seeds below every assertion holds with overwhelming margin
*if and only if* the sampler actually draws from the a-posteriori world
distribution — a wrong RNG-consumption change, a window off-by-one, or a
biased resume path shows up as a bound violation, not a flaky test.

Every topology runs on the default engine and, where the C tier builds,
on ``backend="native"``; worlds are drawn over the requested window only
(the cache contract).  The weekly CI cron re-runs the suite with
``STATVAL_SCALE=10`` — ten times the samples, a √10-tighter radius.
"""

import os

import numpy as np
import pytest

from repro.analysis.hoeffding import confidence_radius
from repro.core.evaluator import QueryEngine
from repro.core.exact import (
    exact_forall_nn_over_times,
    exact_nn_probabilities,
    exact_reverse_nn_probabilities,
)
from repro.core.queries import QueryRequest
from tests.oracles.shapes import BACKENDS, TOPOLOGIES

SCALE = int(os.environ.get("STATVAL_SCALE", "1"))
N_SAMPLES = 4_000 * SCALE
#: Per-comparison two-sided failure probability; the whole suite makes a
#: few hundred comparisons, so the union-bound failure mass stays ~1e-5.
DELTA = 1e-7
EPS = confidence_radius(N_SAMPLES, DELTA)

def _engine(db, backend, seed):
    # reuse_worlds routes standalone queries through the shared world cache
    # — the code path whose window semantics this suite certifies.
    return QueryEngine(
        db,
        n_samples=N_SAMPLES,
        seed=seed,
        backend=backend,
        reuse_worlds=True,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestForallExistsAgainstExactOracle:
    def test_nn_probabilities_within_hoeffding_radius(
        self, topology, backend
    ):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        exact = exact_nn_probabilities(db, q, times)
        est = _engine(db, backend, seed=101).nn_probabilities(
            q, times
        )
        assert set(est) == set(exact)
        for oid, (p_forall, p_exists) in exact.items():
            e_forall, e_exists = est[oid]
            assert abs(e_forall - p_forall) <= EPS, (
                f"P∀NN({oid}) drifted: sampled {e_forall}, exact {p_forall}"
            )
            assert abs(e_exists - p_exists) <= EPS, (
                f"P∃NN({oid}) drifted: sampled {e_exists}, exact {p_exists}"
            )

    def test_batched_sliding_windows_within_hoeffding_radius(
        self, topology, backend
    ):
        """Each sliding sub-window of a batch — sampled from one shared,
        possibly forward-grown world set — matches the exact oracle for
        that sub-window."""
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        windows = [times[:-1], times[1:], times]
        engine = _engine(db, backend, seed=202)
        requests = [QueryRequest(q, w, "forall") for w in windows]
        requests += [QueryRequest(q, w, "exists") for w in windows]
        out = engine.evaluate_many(requests)
        for req, res in zip(requests, out):
            exact = exact_nn_probabilities(db, q, req.times)
            idx = 0 if req.mode == "forall" else 1
            for oid, p_hat in res.probabilities.items():
                assert abs(p_hat - exact[oid][idx]) <= EPS, (
                    f"{req.mode} window {req.times}, {oid}: "
                    f"sampled {p_hat}, exact {exact[oid][idx]}"
                )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", ["drift", "paper"])
class TestPCNNAgainstExactOracle:
    TAU = 0.05

    def test_mined_timestamp_sets_within_hoeffding_radius(
        self, topology, backend
    ):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        tables = exact_forall_nn_over_times(db, q, times)
        engine = _engine(db, backend, seed=303)
        result = engine.continuous_nn(q, times, tau=self.TAU)

        seen: dict[tuple[str, tuple[int, ...]], float] = {}
        for entry in result.entries:
            p_exact = tables[entry.object_id].get(entry.times)
            assert p_exact is not None, (
                f"mined set {entry.times} for {entry.object_id} is not a "
                "valid timestamp subset"
            )
            assert abs(entry.probability - p_exact) <= EPS, (
                f"PCNN({entry.object_id}, {entry.times}) drifted: "
                f"sampled {entry.probability}, exact {p_exact}"
            )
            seen[(entry.object_id, entry.times)] = entry.probability

        # Completeness: any subset exactly above tau + EPS must have been
        # mined (its estimate, within the radius, clears the threshold; by
        # P∀NN monotonicity so do all its subsets, so apriori pruning
        # cannot have discarded it).
        for oid, table in tables.items():
            for subset, p_exact in table.items():
                if p_exact >= self.TAU + EPS:
                    assert (oid, subset) in seen, (
                        f"PCNN({oid}, {subset}) with exact P={p_exact} "
                        f"missing from mined sets"
                    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestKnnDepthAgainstExactOracle:
    """k=2 forward estimates stay within the Hoeffding radius of the
    enumeration oracle — the depth generalization inherits the classic
    pipeline's statistical contract unchanged."""

    def test_k2_raw_probabilities_within_hoeffding_radius(
        self, topology, backend
    ):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        exact = exact_nn_probabilities(db, q, times, k=2)
        raw = _engine(db, backend, seed=404).evaluate(
            QueryRequest(q, times, "raw", k=2)
        )
        assert set(raw.forall) == set(exact)
        for oid, (p_forall, p_exists) in exact.items():
            assert abs(raw.forall[oid] - p_forall) <= EPS, (
                f"P∀2NN({oid}) drifted: sampled {raw.forall[oid]}, "
                f"exact {p_forall}"
            )
            assert abs(raw.exists[oid] - p_exists) <= EPS, (
                f"P∃2NN({oid}) drifted: sampled {raw.exists[oid]}, "
                f"exact {p_exists}"
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestReverseNNAgainstExactOracle:
    """Reverse-PNN estimates (one arena pass, transposed indicator) stay
    within the Hoeffding radius of the reverse enumeration oracle."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_reverse_probabilities_within_hoeffding_radius(
        self, topology, backend, k
    ):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        exact = exact_reverse_nn_probabilities(db, q, np.asarray(times), k=k)
        res = _engine(db, backend, seed=505).evaluate(
            QueryRequest(q, times, "reverse_nn", k=k)
        )
        assert set(res.probabilities) == set(exact)
        for oid, (p_forall, p_exists) in exact.items():
            assert abs(res.probabilities[oid] - p_forall) <= EPS, (
                f"reverse P∀{k}NN({oid}) drifted: "
                f"sampled {res.probabilities[oid]}, exact {p_forall}"
            )
            assert abs(res.exists[oid] - p_exists) <= EPS, (
                f"reverse P∃{k}NN({oid}) drifted: "
                f"sampled {res.exists[oid]}, exact {p_exists}"
            )
