"""New query classes in lockstep with their exact oracles.

Three query classes ride on the same sampled worlds as the classic P∀NN
pipeline — P-kNN with depth ``k > 1``, the reverse direction
(``mode="reverse_nn"``: which objects have *the query* among their k
likely nearest neighbors), and uncertain NN classification.  Each has an
enumeration oracle in :mod:`repro.core.exact`; these tests certify, for
every statval topology,

* ``estimator="exact"`` through the pipeline is **bit-identical** to the
  direct oracle call for ``k ∈ {1, 2, 3}`` (the pipeline adds filtering
  and assembly, never arithmetic);
* the *sampled* answers of the new modes count over the per-object loop
  oracle's worlds, on either backend, exactly as the classic ones must;
* ``k=1`` requests reproduce today's results bit-for-bit — the depth
  parameter is a strict generalization, not a parallel code path.
"""

import numpy as np
import pytest

from repro.analysis.classification import UncertainNNClassifier
from repro.core.evaluator import QueryEngine
from repro.core.exact import (
    exact_nn_probabilities,
    exact_reverse_nn_probabilities,
)
from repro.core.queries import Query, QueryRequest
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import (
    make_drift_chain,
    make_line_space,
    make_paper_example_db,
    make_random_world,
)
from tests.oracles import checking_distances
from tests.oracles.shapes import BACKENDS

K_DEPTHS = [1, 2, 3]


def _drift_db():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    db.add_object("b", [(0, 1), (4, 3)])
    return db


def _random_db():
    db, _ = make_random_world(
        seed=3, n_states=6, n_objects=3, span=4, obs_every=2
    )
    return db


#: The statval topologies (same shapes as test_statistical_validation.py),
#: except ``random`` carries three objects so every k in K_DEPTHS is legal.
TOPOLOGIES = {
    "drift": (_drift_db, lambda: Query.from_point([0.0, 0.0]), (1, 2, 3)),
    "paper": (make_paper_example_db, lambda: Query.from_point([0.0, 0.0]), (1, 2, 3)),
    "random": (_random_db, lambda: Query.from_point([5.0, 5.0]), (1, 2, 3)),
}


def _engine(db, backend="compiled", **kwargs):
    kwargs.setdefault("n_samples", 400)
    kwargs.setdefault("seed", 29)
    return QueryEngine(db, backend=backend, **kwargs)


def _pool_size(db, times):
    return len(db.objects_overlapping(np.asarray(times)))


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestExactOracleLockstep:
    """Pipeline ``estimator="exact"`` ≡ direct oracle, bit for bit."""

    def test_forward_knn_matches_oracle(self, topology):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        for k in K_DEPTHS:
            if k > _pool_size(db, times):
                continue
            oracle = exact_nn_probabilities(db, q, times, k=k)
            res = _engine(db).evaluate(
                QueryRequest(q, times, "raw", k=k, estimator="exact")
            )
            assert set(res.forall) == set(oracle)
            for oid, (p_forall, p_exists) in oracle.items():
                # Bit-identical, not approx: the pipeline must add zero
                # arithmetic on top of the enumeration oracle.
                assert res.forall[oid] == p_forall, (topology, k, oid)
                assert res.exists[oid] == p_exists, (topology, k, oid)
            assert res.report.k == k

    def test_reverse_nn_matches_oracle(self, topology):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        for k in K_DEPTHS:
            if k > _pool_size(db, times):
                continue
            oracle = exact_reverse_nn_probabilities(db, q, np.asarray(times), k=k)
            res = _engine(db).evaluate(
                QueryRequest(q, times, "reverse_nn", k=k, estimator="exact")
            )
            assert set(res.probabilities) == set(oracle)
            for oid, (p_forall, p_exists) in oracle.items():
                assert res.probabilities[oid] == p_forall, (topology, k, oid)
                assert res.exists[oid] == p_exists, (topology, k, oid)
            assert res.k == k

    def test_classifier_matches_hand_rolled_oracle(self, topology):
        """Exact-estimator classification ≡ normalizing the oracle's masses."""
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        labels = {
            oid: ("even" if i % 2 == 0 else "odd")
            for i, oid in enumerate(sorted(db.object_ids))
        }
        clf = UncertainNNClassifier(
            _engine(db), labels, aggregate="exists",
            estimator="exact",
        )
        dist = clf.label_probabilities(q, times)
        oracle = exact_nn_probabilities(db, q, times, k=1)
        support: dict[str, float] = {}
        for oid in sorted(oracle):
            support[labels[oid]] = support.get(labels[oid], 0.0) + oracle[oid][1]
        total = sum(support[label] for label in sorted(support))
        expected = {label: support[label] / total for label in sorted(support)}
        assert dist.probabilities == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestSampledOracleParity:
    """The new modes count over the per-object loop oracle's worlds: every
    refinement tensor they draw is ``tests.oracles``' bit for bit."""

    @pytest.mark.parametrize("mode", ["raw", "reverse_nn"])
    def test_knn_refinement_parity(self, topology, backend, mode):
        build_db, build_q, times = TOPOLOGIES[topology]
        db, q = build_db(), build_q()
        engine = _engine(db, backend)
        depths = [k for k in K_DEPTHS if k <= _pool_size(db, times)]
        with checking_distances(engine) as checked:
            for k in depths:
                engine.evaluate(QueryRequest(q, times, mode, k=k))
        assert len(checked) == len(depths)


@pytest.mark.parametrize("backend", BACKENDS)
class TestKOneIsTodaysQuery:
    """``k=1`` must reproduce the historical (depth-free) results exactly."""

    @pytest.mark.parametrize("mode", ["forall", "exists", "raw"])
    def test_explicit_k1_equals_default(self, backend, mode):
        db, _ = make_random_world(seed=5, n_states=8, n_objects=4, span=8, obs_every=4)
        q = Query.from_point([5.0, 5.0])
        times = tuple(range(1, 7))
        a = _engine(db, backend).evaluate(QueryRequest(q, times, mode, k=1))
        b = _engine(db, backend).evaluate(QueryRequest(q, times, mode))
        if mode == "raw":
            assert a.forall == b.forall and a.exists == b.exists
        else:
            assert a.probabilities == b.probabilities
            assert [(r.object_id, r.probability) for r in a.results] == [
                (r.object_id, r.probability) for r in b.results
            ]

    def test_k1_matches_nn_probabilities_shim(self, backend):
        db, _ = make_random_world(seed=6, n_states=8, n_objects=3, span=6, obs_every=3)
        q = Query.from_point([4.0, 6.0])
        times = (1, 2, 3)
        raw = _engine(db, backend).evaluate(
            QueryRequest(q, times, "raw", k=1)
        )
        shim = _engine(db, backend).nn_probabilities(q, times)
        assert raw.as_dict() == shim


class TestReverseResultShape:
    """The reverse result type carries the transposed semantics honestly."""

    def test_tau_filters_on_forall_and_sorts(self):
        db, _ = make_random_world(seed=9, n_states=8, n_objects=4, span=8, obs_every=4)
        q = Query.from_point([5.0, 5.0])
        eng = QueryEngine(db, n_samples=400, seed=11)
        res = eng.reverse_nn(q, (1, 2, 3), tau=0.0, k=2)
        probs = [r.probability for r in res.results]
        assert probs == sorted(probs, reverse=True)
        assert all(r.probability >= 0.0 for r in res.results)
        assert set(res.probabilities) == set(res.exists)
        assert res.k == 2 and res.report.k == 2
        assert res.report.mode == "reverse_nn"
        # as_dict mirrors RawProbabilities: oid -> (P∀, P∃).
        for oid, (pf, pe) in res.as_dict().items():
            assert pf == res.probabilities[oid]
            assert pe == res.exists[oid]

    def test_reverse_skips_query_distance_pruning(self):
        """Reverse filtering must not apply UST distance-to-query pruning
        (an object far from q can still have q as its own NN)."""
        db, _ = make_random_world(seed=12, n_states=10, n_objects=5, span=8, obs_every=4)
        q = Query.from_point([0.0, 0.0])
        eng = QueryEngine(db, n_samples=200, seed=13, use_pruning=True)
        times = np.asarray((1, 2, 3))
        pruning = eng.filter_objects(q, times, reverse=True)
        overlapping = {o.object_id for o in db.objects_overlapping(times)}
        assert set(pruning.influencers) == overlapping


class TestKDepthAtEvaluateTime:
    """k is re-checked against the filter stage's pool at evaluate time:
    a depth no object count can satisfy fails with a descriptive error
    instead of silently returning certainty-1 memberships."""

    def _db(self, n_objects=3):
        db, _ = make_random_world(
            seed=21, n_states=8, n_objects=n_objects, span=6, obs_every=3
        )
        return db

    def test_k_exceeding_pool_raises_descriptively(self):
        db = self._db(3)
        eng = QueryEngine(db, n_samples=100, seed=1)
        with pytest.raises(ValueError, match=r"k=4 exceeds .*3 influence"):
            eng.forall_nn(Query.from_point([5.0, 5.0]), (1, 2, 3), k=4)

    def test_k_equal_to_pool_is_legal(self):
        db = self._db(3)
        eng = QueryEngine(db, n_samples=100, seed=1)
        res = eng.forall_nn(Query.from_point([5.0, 5.0]), (1, 2, 3), k=3)
        assert res.report.k == 3

    def test_k_on_empty_pool_returns_empty_result(self):
        # No objects overlap t=900: nothing can rank, so any k yields the
        # usual empty result instead of the k-vs-pool error.
        db = self._db(3)
        eng = QueryEngine(db, n_samples=100, seed=1)
        res = eng.forall_nn(Query.from_point([5.0, 5.0]), (900,), k=5)
        assert res.results == []

    def test_reverse_k_exceeding_pool_raises_too(self):
        db = self._db(2)
        eng = QueryEngine(db, n_samples=100, seed=1)
        with pytest.raises(ValueError, match=r"k=3 exceeds"):
            eng.reverse_nn(Query.from_point([5.0, 5.0]), (1, 2, 3), k=3)
