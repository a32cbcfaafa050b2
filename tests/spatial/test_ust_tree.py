"""Tests for the UST-tree index and § 6 pruning."""

import numpy as np
import pytest

from repro.core.exact import exact_nn_probabilities
from repro.core.queries import Query
from repro.spatial.ust_tree import USTTree
from tests.conftest import make_random_world
from tests.oracles import prune_reference


class TestIndexConstruction:
    def test_one_entry_per_segment(self, drift_db):
        tree = USTTree(drift_db)
        # Each object has one segment (two observations).
        assert len(tree) == 2

    def test_segments_overlapping_window(self, drift_db):
        """``examined_entries`` counts the segments meeting the window."""
        tree = USTTree(drift_db)
        inside, outside = np.arange(0, 5), np.arange(10, 21)
        assert tree.prune(np.zeros((5, 2)), inside).examined_entries == 2
        assert tree.prune(np.zeros((11, 2)), outside).examined_entries == 0

    def test_multi_segment_objects(self):
        db, _ = make_random_world(seed=1, n_objects=2, span=6, obs_every=2)
        tree = USTTree(db)
        assert len(tree) == 6  # 3 segments per object


class TestPruningSoundness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("refine", [False, True])
    def test_influencers_cover_all_possible_nn(self, seed, refine):
        """Soundness: every object with non-zero exact P∃NN must survive."""
        db, _ = make_random_world(seed=seed, n_objects=4, span=4, obs_every=2)
        tree = USTTree(db)
        q_point = np.asarray([5.0, 5.0])
        times = np.array([1, 2, 3])
        q = Query.from_point(q_point)
        # Segment-MBR-only bounds exist in the reference filter alone.
        result = (
            tree.prune(q.coords_at(times), times)
            if refine
            else prune_reference(db, q.coords_at(times), times, refine_per_tic=False)
        )
        exact = exact_nn_probabilities(db, q, times)
        for oid, (_, p_exists) in exact.items():
            if p_exists > 1e-12:
                assert oid in result.influencers

    @pytest.mark.parametrize("seed", range(5))
    def test_candidates_cover_all_forall_results(self, seed):
        db, _ = make_random_world(seed=seed + 50, n_objects=4, span=4, obs_every=2)
        tree = USTTree(db)
        times = np.array([1, 2, 3])
        q = Query.from_point([5.0, 5.0])
        result = tree.prune(q.coords_at(times), times)
        exact = exact_nn_probabilities(db, q, times)
        for oid, (p_forall, _) in exact.items():
            if p_forall > 1e-12:
                assert oid in result.candidates

    def test_candidates_subset_of_influencers(self):
        db, _ = make_random_world(seed=9, n_objects=5, span=6, obs_every=3)
        tree = USTTree(db)
        times = np.array([2, 3, 4])
        q = Query.from_point([3.0, 3.0])
        result = tree.prune(q.coords_at(times), times)
        assert set(result.candidates) <= set(result.influencers)

    def test_refinement_never_adds_objects(self):
        db, _ = make_random_world(seed=4, n_objects=5, span=6, obs_every=3)
        tree = USTTree(db)
        times = np.array([1, 2, 3, 4])
        q = Query.from_point([2.0, 8.0])
        coarse = prune_reference(db, q.coords_at(times), times, refine_per_tic=False)
        fine = tree.prune(q.coords_at(times), times)
        assert set(fine.influencers) <= set(coarse.influencers)
        assert set(fine.candidates) <= set(coarse.candidates)

    def test_k_larger_keeps_more(self):
        db, _ = make_random_world(seed=6, n_objects=6, span=4, obs_every=2)
        tree = USTTree(db)
        times = np.array([1, 2])
        q = Query.from_point([5.0, 5.0])
        k1 = tree.prune(q.coords_at(times), times, k=1)
        k3 = tree.prune(q.coords_at(times), times, k=3)
        assert set(k1.influencers) <= set(k3.influencers)

    def test_partial_coverage_objects_not_candidates(self, drift_db):
        drift_db.add_object("late", [(2, 0), (6, 2)])
        tree = USTTree(drift_db)
        times = np.array([0, 1, 2])
        q = Query.from_point([0.0, 0.0])
        result = tree.prune(q.coords_at(times), times)
        assert "late" not in result.candidates


class TestPruningBounds:
    def test_bounds_enclose_true_distances(self, drift_db):
        """dmin/dmax from MBRs must bracket every possible distance."""
        tree = USTTree(drift_db)
        times = np.array([0, 1, 2, 3, 4])
        q = Query.from_point([0.0, 0.0])
        result = tree.prune(q.coords_at(times), times)
        for oid in ("a", "b"):
            obj = drift_db.get(oid)
            states = obj.sample_states(times, 200, np.random.default_rng(0))
            coords = drift_db.space.coords_of(states)
            dists = np.sqrt(np.sum(coords**2, axis=-1))
            lo = result.dmin_bounds[oid]
            hi = result.dmax_bounds[oid]
            assert (dists >= lo[None, :] - 1e-9).all()
            assert (dists <= hi[None, :] + 1e-9).all()

    def test_empty_time_set_rejected(self, drift_db):
        tree = USTTree(drift_db)
        with pytest.raises(ValueError):
            tree.prune(np.zeros((0, 2)), np.array([], dtype=int))

    def test_coord_time_mismatch_rejected(self, drift_db):
        tree = USTTree(drift_db)
        with pytest.raises(ValueError):
            tree.prune(np.zeros((2, 2)), np.array([0, 1, 2]))

    def test_prune_distances_finite_when_alive(self, drift_db):
        tree = USTTree(drift_db)
        times = np.array([0, 2, 4])
        q = Query.from_point([0.0, 0.0])
        result = tree.prune(q.coords_at(times), times)
        assert np.isfinite(result.prune_distances).all()
        assert result.examined_entries >= 2
