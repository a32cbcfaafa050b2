"""Further engine behaviours: trajectory queries, k-variants, edge cases."""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.exact import exact_nn_probabilities
from repro.core.queries import Query
from repro.trajectory.trajectory import Trajectory
from tests.conftest import make_random_world


class TestTrajectoryQueries:
    def test_moving_query_against_exact(self):
        db, _ = make_random_world(seed=31, n_objects=2, span=4, obs_every=2)
        # A certain query trajectory wandering through the space.
        traj = Trajectory(0, np.array([0, 1, 2, 3, 4]) % db.space.n_states)
        q = Query.from_trajectory(traj, db.space)
        times = [1, 2, 3]
        exact = exact_nn_probabilities(db, q, times)
        engine = QueryEngine(db, n_samples=6000, seed=1)
        estimates = engine.nn_probabilities(q, times)
        for oid, (p_forall, p_exists) in estimates.items():
            assert p_forall == pytest.approx(exact[oid][0], abs=0.03)
            assert p_exists == pytest.approx(exact[oid][1], abs=0.03)

    def test_pcnn_with_moving_query(self):
        db, _ = make_random_world(seed=33, n_objects=3, span=6, obs_every=3)
        traj = Trajectory(0, np.arange(7) % db.space.n_states)
        q = Query.from_trajectory(traj, db.space)
        engine = QueryEngine(db, n_samples=400, seed=2)
        res = engine.continuous_nn(q, [1, 2, 3, 4], tau=0.4)
        for entry in res.entries:
            assert entry.probability >= 0.4


class TestKVariants:
    def test_knn_probabilities_monotone_in_k(self):
        db, _ = make_random_world(seed=41, n_objects=5, span=4, obs_every=2)
        q = Query.from_point([5.0, 5.0])
        times = [1, 2, 3]
        engine = QueryEngine(db, n_samples=1500, seed=0)
        p1 = engine.nn_probabilities(q, times, k=1)
        engine2 = QueryEngine(db, n_samples=1500, seed=0)
        p2 = engine2.nn_probabilities(q, times, k=2)
        # Same seeds draw the same worlds, so monotonicity is exact.
        for oid in p1:
            assert p2[oid][0] >= p1[oid][0] - 1e-12
            assert p2[oid][1] >= p1[oid][1] - 1e-12

    def test_k_equal_objects_gives_probability_one(self):
        db, _ = make_random_world(seed=43, n_objects=3, span=4, obs_every=2)
        q = Query.from_point([5.0, 5.0])
        times = [1, 2]
        engine = QueryEngine(db, n_samples=300, seed=1)
        probs = engine.nn_probabilities(q, times, k=3)
        # Every object alive throughout T is always among the 3 nearest
        # of 3 objects.
        for oid, (p_forall, p_exists) in probs.items():
            if db.get(oid).covers_all(np.asarray(times)):
                assert p_forall == pytest.approx(1.0)

    def test_continuous_knn(self):
        db, _ = make_random_world(seed=47, n_objects=4, span=4, obs_every=2)
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(db, n_samples=500, seed=2)
        res1 = engine.continuous_nn(q, [1, 2, 3], tau=0.5, k=1)
        engine2 = QueryEngine(db, n_samples=500, seed=2)
        res2 = engine2.continuous_nn(q, [1, 2, 3], tau=0.5, k=2)
        # k=2 qualifies at least as many (object, timeset) pairs.
        sets1 = {(e.object_id, e.times) for e in res1.entries}
        sets2 = {(e.object_id, e.times) for e in res2.entries}
        assert sets1 <= sets2


class TestDistanceTensor:
    def test_shape_and_inf_marking(self, drift_db):
        drift_db.add_object("late", [(2, 0), (6, 2)])
        engine = QueryEngine(drift_db, n_samples=25, seed=0)
        q = Query.from_point([0.0, 0.0])
        times = np.array([0, 2, 4])
        dist = engine.distance_tensor(["a", "late"], q, times)
        assert dist.shape == (25, 2, 3)
        assert np.isinf(dist[:, 1, 0]).all()  # "late" absent at t=0
        assert np.isfinite(dist[:, 1, 1]).all()

    def test_object_never_alive_all_inf(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=5, seed=0)
        q = Query.from_point([0.0, 0.0])
        dist = engine.distance_tensor(["a"], q, np.array([50, 60]))
        assert np.isinf(dist).all()

    def test_custom_sample_count(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=10, seed=0)
        q = Query.from_point([0.0, 0.0])
        dist = engine.distance_tensor(["a"], q, np.array([0, 1]), n_samples=77)
        assert dist.shape[0] == 77


class TestIndexLifecycle:
    def test_index_cached(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=10, seed=0)
        tree = engine.ust_tree
        assert engine.ust_tree is tree

    def test_prebuilt_index_accepted(self, drift_db):
        from repro.spatial.ust_tree import USTTree

        tree = USTTree(drift_db)
        engine = QueryEngine(drift_db, n_samples=10, seed=0, ust_tree=tree)
        assert engine.ust_tree is tree


class TestNoPruningExaminedEntries:
    def test_fallback_reports_scanned_objects(self):
        """The no-pruning fallback scans every overlapping object; the
        report must say so instead of claiming zero examined entries."""
        db, _ = make_random_world(seed=12, n_states=12, n_objects=4, span=12, obs_every=4)
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(db, n_samples=50, seed=1, use_pruning=False)
        result = engine.forall_nn(q, range(2, 8))
        assert result.report.examined_entries == len(result.influencers) > 0
