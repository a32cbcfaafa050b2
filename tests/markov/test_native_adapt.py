"""Algorithm 2 in the native tier against the numpy sweep, byte for byte.

``adapt_many(..., native=True)`` derives every segment of a group in one
C call (``native.adapt_sweep``) that also lays out each derived stretch's
``ModelTables``.  Its contract is the numpy ``_sweep`` plus
``_compile_stretches``: every ``Segment`` field and every table array
with the same dtype and bytes, every error with the same type and
message, for the same request and the same segment.  The trap is
summation order, so the fixed cases walk chains whose column runs, row
groups and supports are 7, 8, 9, 128, 129 and more than 256 entries wide
(numpy's pairwise sum changes regime at 8, 128 and beyond), next to
explicitly stored zeros, open cones, dead supports, unreachable fixes and
time-inhomogeneous chains; a bounded hypothesis fuzz covers the rest.

With the tier unavailable (``REPRO_DISABLE_NATIVE=1``) the parity class
runs both sides on the numpy fallback, and the boundary class skips.
"""

from __future__ import annotations

import importlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.markov import adaptation, compiled, native
from repro.markov.adaptation import adapt_many
from repro.markov.chain import InhomogeneousMarkovChain, MarkovChain
from tests.oracles import same_array, same_tables

pytestmark = pytest.mark.native

#: Whether the parity cases exercise the C sweep (else both sides run the
#: numpy fallback, as the ``REPRO_DISABLE_NATIVE=1 -m native`` leg does).
NATIVE = native.available()

requires_native = pytest.mark.skipif(
    not NATIVE, reason=f"native tier unavailable ({native.unavailable_reason()})"
)


def _arrays(segment):
    return [*sum(segment.layers, ()), *sum(segment.posterior, ()), *sum(segment.forward, ())]


def _same_results(got, want, context):
    """Models segment by segment, field by field; errors by type and text."""
    assert len(got) == len(want), context
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, ValueError):
            assert type(g) is type(w) and str(g) == str(w), (context, i, g, w)
            continue
        assert (g.t_first, g.t_last) == (w.t_first, w.t_last), (context, i)
        assert len(g.segments) == len(w.segments), (context, i)
        for a, b in zip(g.segments, w.segments):
            where = (context, i, a.key)
            assert a.key == b.key, where
            assert [len(a.layers), len(a.posterior), len(a.forward)] == [
                len(b.layers), len(b.posterior), len(b.forward)
            ], where
            for x, y in zip(_arrays(a), _arrays(b)):
                same_array(x, y, where)
            assert all(p[0] is layer[0] for p, layer in zip(a.posterior, a.layers)), where


def _tables_of(models):
    """Each model's stretch tables as the numpy compile lays them out, or
    the ``ValueError`` it raises for the stretch (a cone over a stored
    0.0 cannot be compiled)."""
    out = []
    for model in models:
        if isinstance(model, ValueError):
            continue
        for seg in model.segments:
            try:
                out.append(compiled._compile_stretches([seg])[0])
            except ValueError as exc:
                out.append(exc)
    return out


def _check(requests, context):
    """``native=NATIVE`` against the numpy sweep and compile."""
    with warnings.catch_warnings():
        # A stored 0.0 can leave a reachable state without posterior mass:
        # 0/0 rows, on both sides alike.
        warnings.simplefilter("ignore", RuntimeWarning)
        want = adapt_many(requests)
        got = adapt_many(requests, native=NATIVE)
        _same_results(got, want, context)
        derived = [seg for m in got if not isinstance(m, ValueError) for seg in m.segments]
        for seg, tables in zip(derived, _tables_of(want)):
            if isinstance(tables, ValueError):
                # Left uncompiled: compiling it raises the numpy error.
                assert seg.compiled is None or not NATIVE, (context, seg.key)
                with pytest.raises(ValueError, match=re.escape(str(tables))):
                    compiled._compile_stretches([seg])
            elif NATIVE:
                same_tables(seg.compiled, tables, (context, seg.key))
    return got


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------
def _banded(rng, n, degree, zeros=0):
    """``i -> i, …, i + degree - 1 (mod n)``: out- and in-degree ``degree``,
    ``zeros`` of each row's entries stored as exactly 0.0."""
    rows = np.repeat(np.arange(n), degree)
    cols = ((np.arange(n)[:, None] + np.arange(degree)) % n).ravel()
    vals = rng.uniform(0.1, 1.0, size=(n, degree))
    for i in range(n):
        vals[i, rng.choice(degree, size=zeros, replace=False)] = 0.0
    vals /= vals.sum(axis=1, keepdims=True)
    return sparse.csr_matrix((vals.ravel(), (rows, cols)), shape=(n, n))


def _walk(rng, chain, t0, steps):
    state = int(rng.integers(chain.n_states))
    walk = [state]
    for t in range(t0, t0 + steps):
        nxt, probs = chain.successors(state, t)
        keep = probs > 0
        state = int(rng.choice(nxt[keep], p=probs[keep] / probs[keep].sum()))
        walk.append(state)
    return walk


def _requests(rng, chain, n_objects, gap, n_fixes=3, cone=True):
    """Objects with fixes every ``gap`` tics along positive-probability
    walks, every other one with an ``extend_to`` cone."""
    out = []
    for i in range(n_objects):
        t0 = int(rng.integers(0, 3))
        walk = _walk(rng, chain, t0, gap * (n_fixes - 1))
        fixes = [(t0 + k * gap, walk[k * gap]) for k in range(n_fixes)]
        extend_to = fixes[-1][0] + gap if cone and i % 2 else None
        out.append((chain, fixes, extend_to, None))
    return out


#: (degree, gap): column runs and row groups ``degree`` wide, supports
#: growing by ``degree - 1`` a tic — every regime of numpy's pairwise sum.
WIDTHS = [(7, 3), (8, 3), (9, 3), (128, 2), (129, 2), (300, 2)]


class TestNativeAdaptation:
    @pytest.mark.parametrize("degree, gap", WIDTHS)
    def test_summation_widths(self, degree, gap):
        rng = np.random.default_rng(degree)
        chain = MarkovChain(_banded(rng, 2 * degree + 5, degree))
        _check(_requests(rng, chain, 5, gap), ("width", degree))

    @pytest.mark.parametrize("gap", [1, 2, 4])
    def test_explicitly_stored_zeros(self, gap):
        """Columns summing to 0 leave the support; cones over them cannot be
        compiled, on both sides alike."""
        rng = np.random.default_rng(gap)
        chain = MarkovChain(_banded(rng, 30, 9, zeros=3))
        _check(_requests(rng, chain, 8, gap), ("zeros", gap))

    def test_open_cones_only(self):
        rng = np.random.default_rng(11)
        chain = MarkovChain(_banded(rng, 40, 8))
        requests = [(chain, [(t, int(rng.integers(40)))], t + 1 + t % 5, None) for t in range(6)]
        models = _check(requests, ("cones",))
        assert all(m.segments[-1].key[3] is None for m in models)

    def test_time_inhomogeneous_chains(self):
        rng = np.random.default_rng(5)
        chain = InhomogeneousMarkovChain(
            {t: _banded(rng, 24, int(rng.integers(3, 10))) for t in range(0, 20)},
            default=_banded(rng, 24, 8),
        )
        _check(_requests(rng, chain, 9, 3, n_fixes=4), ("inhomogeneous",))

    def test_dead_supports_and_unreachable_fixes_fail_alone(self):
        """State 2 has no successors; ``2 -> 3`` is stored with probability
        0.0.  Each bad request reports its earliest contradiction, its
        peers get their models."""
        indptr = [0, 2, 4, 4, 6, 7]
        indices = [0, 1, 1, 2, 3, 4, 4]
        data = [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0]
        chain = MarkovChain(
            sparse.csr_matrix((data, indices, indptr), shape=(5, 5)), validate=False
        )
        good = (chain, [(0, 0), (2, 1), (4, 1)], 5, None)
        requests = [
            good,
            (chain, [(0, 2), (2, 2)], None, None),  # dies out at t = 1
            (chain, [(0, 1)], 3, None),  # a cone reaching state 2: no successors
            (chain, [(0, 0), (1, 1), (3, 4), (5, 0)], None, None),  # two contradictions
            (chain, [(0, 3), (1, 4), (2, 4)], 4, None),
            (chain, [(0, 0), (9, 0)], None, None),
            good,
        ]
        models = _check(requests, ("contradictions",))
        assert [type(m).__name__ for m in models] == [
            "AdaptedModel", "ObservationContradictionError", "ObservationContradictionError",
            "ObservationContradictionError", "AdaptedModel", "AdaptedModel", "AdaptedModel",
        ]
        assert str(models[1]) == (
            "chain support dies out at time 1 before reaching the next observation"
        )
        assert str(models[2]) == "state 2 has no successors at time 1"
        assert str(models[3]).startswith("observation (t=3, state=4) has zero probability")

    @requires_native
    def test_derived_stretches_arrive_compiled(self, monkeypatch):
        rng = np.random.default_rng(8)
        chain = MarkovChain(_banded(rng, 30, 7))
        requests = _requests(rng, chain, 6, 3)
        models = adapt_many(requests, native=True)
        assert all(seg.compiled is not None for m in models for seg in m.segments)
        calls = []
        stretches = compiled._compile_stretches
        monkeypatch.setattr(
            compiled, "_compile_stretches", lambda segs: calls.append(len(segs)) or stretches(segs)
        )
        for model, reference in zip(
            adaptation.compiled_views(models),
            adaptation.compiled_views(adapt_many(requests)),
        ):
            same_tables(model.tables, reference.tables, ("views",))
        assert calls == [sum(len(m.segments) for m in models)]  # the numpy twin's only

    def test_records_own_their_buffers(self):
        """Every array of a record is its own or a view of a buffer no other
        record shares: a retired stretch frees its memory alone."""
        rng = np.random.default_rng(3)
        chain = MarkovChain(_banded(rng, 30, 9))
        models = adapt_many(_requests(rng, chain, 6, 3), native=NATIVE)
        segments = [seg for model in models for seg in model.segments]
        for i, a in enumerate(segments):
            for b in segments[i + 1 :]:
                for x in [*_arrays(a), *(a.compiled or ())]:
                    for y in [*_arrays(b), *(b.compiled or ())]:
                        assert not np.shares_memory(x, y), (a.key, b.key)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(data=st.data())
    def test_random_chains_and_batches(self, data):
        n = data.draw(st.integers(2, 14), label="n_states")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        mat = rng.uniform(0.05, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        mat[np.arange(n), rng.integers(n, size=n)] += 0.5  # no empty row
        mat /= mat.sum(axis=1, keepdims=True)
        csr = sparse.csr_matrix(mat)
        if data.draw(st.booleans(), label="stored zeros"):
            csr.data[rng.uniform(size=csr.nnz) < 0.2] = 0.0
        chain = MarkovChain(csr, validate=False)
        requests = []
        for _ in range(data.draw(st.integers(1, 5), label="objects")):
            t = data.draw(st.integers(0, 3))
            fixes = [(t, data.draw(st.integers(0, n - 1)))]
            for _ in range(data.draw(st.integers(0, 3))):
                t += data.draw(st.integers(1, 5))
                fixes.append((t, data.draw(st.integers(0, n - 1))))
            cone = data.draw(st.sampled_from([None, 1, 4]))
            requests.append((chain, fixes, None if cone is None else t + cone, None))
        _check(requests, ("fuzz", seed))


@requires_native
class TestAdaptBoundary:
    """Anything the kernel cannot vouch for is a ``ValueError`` before it
    reads past a buffer (the sanitized run holds it to that)."""

    @staticmethod
    def _mats(gap=2):
        csr = _banded(np.random.default_rng(1), 10, 3)
        arrays = (csr.indptr.astype(np.intp), csr.indices.astype(np.intp), csr.data)
        return (arrays,) * gap

    @staticmethod
    def _ends(s0=(0, 3), s1=(4, -1)):
        return np.array(s0, dtype=np.intp), np.array(s1, dtype=np.intp)

    def test_good_input_passes(self):
        out = native.adapt_sweep(self._mats(), 10, *self._ends())
        assert out.status.tolist() == [0, 0]

    @pytest.mark.parametrize(
        "part, bad",
        [
            (0, lambda a: a.astype(np.int32)),  # wrong dtype
            (0, lambda a: a[:-1]),  # wrong shape
            (1, lambda a: np.repeat(a, 2)[::2]),  # not contiguous
            (2, lambda a: a[:-1]),  # data not beside indices
            (2, lambda a: a.astype(np.float32)),
        ],
    )
    def test_wrong_arrays(self, part, bad):
        mats = [list(m) for m in self._mats()]
        mats[1][part] = bad(mats[1][part])
        with pytest.raises(ValueError, match="must be a C-contiguous"):
            native.adapt_sweep(tuple(map(tuple, mats)), 10, *self._ends())

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p, i: p.__setitem__(4, p[6]),  # decreasing
            lambda p, i: p.__setitem__(-1, i.size + 5),  # past the entries
            lambda p, i: p.__setitem__(0, -1),
        ],
    )
    def test_non_monotone_indptr(self, corrupt):
        indptr, indices, data = (a.copy() for a in self._mats()[0])
        corrupt(indptr, indices)
        with pytest.raises(ValueError, match="not monotone"):
            native.adapt_sweep(((indptr, indices, data),), 10, *self._ends())

    @pytest.mark.parametrize("state", [10, 10**9, -1])
    def test_successor_outside_the_states(self, state):
        indptr, indices, data = (a.copy() for a in self._mats()[0])
        indices[7] = state
        with pytest.raises(ValueError, match="successor outside"):
            native.adapt_sweep(((indptr, indices, data),), 10, *self._ends())

    @pytest.mark.parametrize(
        "ends", [((10, 0), (4, 4)), ((0, -1), (4, 4)), ((0, 0), (4, 10)), ((0, 0), (4, -2))]
    )
    def test_observed_state_outside_the_states(self, ends):
        with pytest.raises(ValueError, match="observed state is outside"):
            native.adapt_sweep(self._mats(), 10, *self._ends(*ends))

    def test_wrong_counts_and_vectors(self):
        with pytest.raises(ValueError, match="n_states"):
            native.adapt_sweep(self._mats(), 0, *self._ends())
        with pytest.raises(ValueError, match="at least one tic"):
            native.adapt_sweep((), 10, *self._ends())
        s0, s1 = self._ends()
        with pytest.raises(ValueError, match="s1 must be"):
            native.adapt_sweep(self._mats(), 10, s0, s1[:1])
        with pytest.raises(ValueError, match="s0 must be"):
            native.adapt_sweep(self._mats(), 10, s0.astype(np.int32), s1)
        with pytest.raises(ValueError, match="indptr must be"):
            native.adapt_sweep(self._mats(), 9, *self._ends())


# ----------------------------------------------------------------------
# the end-to-end workloads on both tiers
# ----------------------------------------------------------------------
BENCH = Path(__file__).resolve().parents[2] / "bench_e2e"


@requires_native
@pytest.mark.parametrize(
    "name", ["AdhocQuery", "MonitorSteady", "FleetLive", "FleetLiveServe2"]
)
def test_workload_scripts_answer_alike_on_both_tiers(name, monkeypatch):
    """The four benchmark workloads' scripts (smoke size) through a default
    engine — native here — and through one that resolves to the numpy
    tier: the same digest of every op's results, and the same counts off
    its reports (cache and reuse counters; timings aside)."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload_class = getattr(importlib.import_module("workloads"), name)

    def run():
        workload = workload_class(seed=11, smoke=True)
        workload.generate()
        workload.setup()
        try:
            digests = [workload.run_op(i)[0] for i in range(12)]
        finally:
            workload.close()
        counts = {
            key: value for key, value in workload.counters.items()
            if not (key.startswith(("stage_", "busy_")) or key.endswith("_s"))
        }
        return digests, counts

    on_native = run()
    with monkeypatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        on_numpy = run()
    assert on_native == on_numpy
