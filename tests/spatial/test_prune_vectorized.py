"""Parity of the columnar § 6 filter against the per-entry reference.

``USTTree.prune(vectorized=True)`` batches the segment pass into one
broadcasted mindist/maxdist over all (entry, covered-tic) pairs and the
per-tic refinement into gathered diamond-MBR tables; ``vectorized=False``
keeps the original entry-at-a-time loop as the oracle.  Both use the same
elementwise geometry arithmetic and max/min accumulation (order
independent), so every output — candidate and influence sets, per-tic
prune distances, per-object bound arrays, even the examined-entry count —
must be *bit-identical*, not merely close.
"""

import numpy as np
import pytest

from repro.core.queries import Query
from repro.markov.chain import MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.diamonds import Diamond
from scipy import sparse

from tests.conftest import make_random_world


def _assert_prune_identical(vec, ref):
    assert vec.candidates == ref.candidates
    assert vec.influencers == ref.influencers
    np.testing.assert_array_equal(vec.prune_distances, ref.prune_distances)
    assert vec.examined_entries == ref.examined_entries
    assert set(vec.dmin_bounds) == set(ref.dmin_bounds)
    assert set(vec.dmax_bounds) == set(ref.dmax_bounds)
    for oid in ref.dmin_bounds:
        np.testing.assert_array_equal(vec.dmin_bounds[oid], ref.dmin_bounds[oid])
        np.testing.assert_array_equal(vec.dmax_bounds[oid], ref.dmax_bounds[oid])


class TestVectorizedParity:
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("seed", [3, 17, 42])
    def test_random_worlds_bit_identical(self, seed, k):
        """Candidates, influencers, prune distances and per-object bound
        arrays match the reference loop exactly, for NN and kNN pruning."""
        db, rng = make_random_world(
            seed=seed, n_states=12, n_objects=7, span=10, obs_every=3
        )
        tree = USTTree(db)
        q = Query.from_point(rng.uniform(0, 10, size=2))
        times = np.arange(2, 9)
        coords = q.coords_at(times)
        vec = tree.prune(coords, times, k=k, vectorized=True)
        ref = tree.prune(coords, times, k=k, vectorized=False)
        _assert_prune_identical(vec, ref)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_segment_only_pass_bit_identical(self, k):
        """Parity holds for the coarse segment-level pass too
        (``refine_per_tic=False``)."""
        db, rng = make_random_world(
            seed=8, n_states=10, n_objects=6, span=9, obs_every=3
        )
        tree = USTTree(db)
        q = Query.from_point(rng.uniform(0, 10, size=2))
        times = np.arange(1, 8)
        coords = q.coords_at(times)
        vec = tree.prune(coords, times, k=k, refine_per_tic=False, vectorized=True)
        ref = tree.prune(coords, times, k=k, refine_per_tic=False, vectorized=False)
        _assert_prune_identical(vec, ref)

    def test_moving_query_coords(self):
        """Per-time query locations (a trajectory query) gather the right
        coordinate row per (pair, tic)."""
        db, rng = make_random_world(
            seed=23, n_states=12, n_objects=5, span=10, obs_every=4
        )
        tree = USTTree(db)
        times = np.arange(0, 10)
        coords = rng.uniform(0, 10, size=(len(times), 2))
        vec = tree.prune(coords, times, k=2, vectorized=True)
        ref = tree.prune(coords, times, k=2, vectorized=False)
        _assert_prune_identical(vec, ref)

    def test_no_overlapping_segments(self):
        """Query times beyond every object's span: both paths return the
        same empty result with all-inf prune distances."""
        db, _ = make_random_world(seed=4, n_objects=3, span=6, obs_every=3)
        times = np.array([50, 51])
        coords = np.zeros((2, 2))
        vec = tree = USTTree(db).prune(coords, times, vectorized=True)
        ref = USTTree(db).prune(coords, times, vectorized=False)
        _assert_prune_identical(vec, ref)
        assert vec.candidates == [] and vec.influencers == []
        assert np.all(np.isinf(vec.prune_distances))

    def test_k_exceeds_population(self):
        """k larger than the object count: pruning degenerates to keeping
        everything alive (prune distance inf), identically on both paths."""
        db, rng = make_random_world(seed=9, n_objects=3, span=8, obs_every=4)
        tree = USTTree(db)
        q = Query.from_point(rng.uniform(0, 10, size=2))
        times = np.arange(1, 7)
        coords = q.coords_at(times)
        vec = tree.prune(coords, times, k=10, vectorized=True)
        ref = tree.prune(coords, times, k=10, vectorized=False)
        _assert_prune_identical(vec, ref)


def _pinned_world(positions):
    """Stationary objects (identity chain): object ``p{i}`` sits at
    ``positions[i]`` forever, so dmin == dmax == exact distance."""
    coords = np.asarray(positions, dtype=float)
    chain = MarkovChain(sparse.identity(len(coords), format="csr"))
    db = TrajectoryDatabase(StateSpace(coords), chain)
    for i in range(len(coords)):
        db.add_object(f"p{i}", [(0, i), (4, i)])
    return db


class TestDuplicateDistanceTies:
    """Mirrored stationary objects produce *exactly* equal dmax values —
    the k-th-smallest selection and the ``<=`` comparisons against the
    prune distance must break these ties identically on both paths."""

    POSITIONS = [
        (1.0, 0.0),
        (-1.0, 0.0),  # ties p0 at distance 1
        (0.0, 2.0),
        (0.0, -2.0),  # ties p2 at distance 2
        (3.0, 0.0),
        (-3.0, 0.0),  # ties p4 at distance 3
    ]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_tied_dmax_bit_identical(self, k):
        db = _pinned_world(self.POSITIONS)
        tree = USTTree(db)
        times = np.arange(0, 5)
        coords = np.zeros((len(times), 2))  # query at the mirror center
        vec = tree.prune(coords, times, k=k, vectorized=True)
        ref = tree.prune(coords, times, k=k, vectorized=False)
        _assert_prune_identical(vec, ref)

    def test_tie_semantics_exact(self):
        """k=2 with a tie at the threshold: the prune distance equals the
        duplicated dmax and ``<=`` keeps both tied objects."""
        db = _pinned_world(self.POSITIONS)
        tree = USTTree(db)
        times = np.arange(0, 5)
        coords = np.zeros((len(times), 2))
        result = tree.prune(coords, times, k=2)
        np.testing.assert_array_equal(
            result.prune_distances, np.ones(len(times))
        )
        # Exactly the two distance-1 objects survive a tied threshold.
        assert result.candidates == ["p0", "p1"]
        assert result.influencers == ["p0", "p1"]


class TestRefineAllCoveringDiamonds:
    """Regression for the per-tic refinement's first-match ``break``.

    The natural diamond decomposition only overlaps at observation tics,
    where both neighbors pin the same observed point — which is why the
    old code's ``break`` after the first covering diamond went unnoticed.
    With genuinely overlapping diamonds whose MBRs differ, each side
    bounds tighter on a different tic: a first-match scan cannot be right
    for both, in either order.  The refinement must keep the tightest
    bound of *every* covering diamond and be independent of diamond
    order, on the reference and vectorized paths alike.
    """

    def _db_with_diamonds(self, diamonds):
        coords = np.array([[0.0, 0.0], [2.0, 0.0], [6.0, 0.0], [8.0, 0.0]])
        dense = np.full((4, 4), 0.25)
        db = TrajectoryDatabase(StateSpace(coords), MarkovChain(sparse.csr_matrix(dense)))
        db.add_object("a", [(0, 0), (3, 3)])
        # Hand-crafted overlap injected under the lazy diamond cache: the
        # tree and the refinement tables both read ``diamonds_of``.
        db.get("a")._diamonds = diamonds
        return db

    def _diamonds(self):
        s = lambda *states: np.asarray(states, dtype=np.intp)
        d1 = Diamond(t_start=0, t_end=2, states_per_tic=[s(0), s(0, 1), s(1)])
        d2 = Diamond(t_start=1, t_end=3, states_per_tic=[s(1, 2), s(1, 2), s(3)])
        return d1, d2

    def test_tightest_bound_across_all_covering_diamonds(self):
        d1, d2 = self._diamonds()
        times = np.arange(0, 4)
        coords = np.zeros((len(times), 2))  # query pinned at state 0
        for order in ([d1, d2], [d2, d1]):
            tree = USTTree(self._db_with_diamonds(list(order)))
            for vectorized in (True, False):
                result = tree.prune(coords, times, vectorized=vectorized)
                dmin, dmax = result.dmin_bounds["a"], result.dmax_bounds["a"]
                # t=1: d1 allows {0,1} (dmin 0, dmax 2), d2 only {1,2}
                # (dmin 2, dmax 6) — the tighter lower bound comes from
                # d2, the tighter upper from d1: a first-match scan gets
                # one of them wrong in either order.  t=2: d1 pins {1}
                # (dmin = dmax = 2) against d2's {1,2} (dmax 6).
                assert dmin[1] == 2.0 and dmax[1] == 2.0
                assert dmin[2] == 2.0 and dmax[2] == 2.0

    def test_order_independent(self):
        d1, d2 = self._diamonds()
        times = np.arange(0, 4)
        coords = np.full((len(times), 2), [5.0, 0.0])
        results = []
        for order in ([d1, d2], [d2, d1]):
            tree = USTTree(self._db_with_diamonds(list(order)))
            vec = tree.prune(coords, times, vectorized=True)
            ref = tree.prune(coords, times, vectorized=False)
            _assert_prune_identical(vec, ref)
            results.append(ref)
        a, b = results
        np.testing.assert_array_equal(a.dmin_bounds["a"], b.dmin_bounds["a"])
        np.testing.assert_array_equal(a.dmax_bounds["a"], b.dmax_bounds["a"])
