"""Parity of the columnar § 6 filter against the per-entry reference.

``USTTree.prune`` is ``USTTree.prune_many`` with one
query: a scan of the persistent per-tic bound table, batched over every
query sharing a time set; ``tests.oracles.prune_reference`` is the original
entry-at-a-time loop over the R*-tree.  Both use the same
elementwise geometry arithmetic and max/min accumulation (order
independent), so every output — candidate and influence sets, per-tic
prune distances, per-object bound arrays, even the examined-entry count —
must be *bit-identical*, not merely close.
"""

import numpy as np
import pytest

from repro.core.queries import Query
from repro.markov import native
from repro.markov.chain import MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.diamonds import Diamond
from scipy import sparse

from tests.conftest import make_random_world
from tests.oracles import prune_reference, same_pruning
from tests.oracles.shapes import MutatingWorld

pytestmark = pytest.mark.oracles


class TestReferenceParity:
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
        vec = tree.prune(coords, times, k=k)
        ref = prune_reference(db, coords, times, k)
        same_pruning(vec, ref)

    def test_moving_query_coords(self):
        """Per-time query locations (a trajectory query) gather the right
        coordinate row per (pair, tic)."""
        db, rng = make_random_world(
            seed=23, n_states=12, n_objects=5, span=10, obs_every=4
        )
        tree = USTTree(db)
        times = np.arange(0, 10)
        coords = rng.uniform(0, 10, size=(len(times), 2))
        vec = tree.prune(coords, times, k=2)
        ref = prune_reference(db, coords, times, 2)
        same_pruning(vec, ref)

    def test_no_overlapping_segments(self):
        """Query times beyond every object's span: both paths return the
        same empty result with all-inf prune distances."""
        db, _ = make_random_world(seed=4, n_objects=3, span=6, obs_every=3)
        times = np.array([50, 51])
        coords = np.zeros((2, 2))
        vec = USTTree(db).prune(coords, times)
        ref = prune_reference(db, coords, times)
        same_pruning(vec, ref)
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
        vec = tree.prune(coords, times, k=10)
        ref = prune_reference(db, coords, times, 10)
        same_pruning(vec, ref)


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
        vec = tree.prune(coords, times, k=k)
        ref = prune_reference(db, coords, times, k)
        same_pruning(vec, ref)

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
    order, in the reference loop and the table scan alike.
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
            db = self._db_with_diamonds(list(order))
            for result in (
                USTTree(db).prune(coords, times),
                prune_reference(db, coords, times),
            ):
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
            db = self._db_with_diamonds(list(order))
            vec = USTTree(db).prune(coords, times)
            ref = prune_reference(db, coords, times)
            same_pruning(vec, ref)
            results.append(ref)
        a, b = results
        np.testing.assert_array_equal(a.dmin_bounds["a"], b.dmin_bounds["a"])
        np.testing.assert_array_equal(a.dmax_bounds["a"], b.dmax_bounds["a"])


# ----------------------------------------------------------------------
# the batched kernel: prune_many vs per-query prune vs the reference loop
# ----------------------------------------------------------------------
HORIZON = 16


def _random_db(seed, ndim, n_objects=9, n_states=14):
    """Objects with staggered lifespans inside ``[0, HORIZON]`` — some a
    single observation long, the others observed at a random subset of
    their tics (interior fixes are covered by two diamonds) — in an
    ``ndim``-dimensional space."""
    rng = np.random.default_rng([seed, ndim])
    mat = rng.uniform(size=(n_states, n_states))
    mask = rng.uniform(size=(n_states, n_states)) < 0.4
    np.fill_diagonal(mask, True)
    mat = mat * mask
    chain = MarkovChain(sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True)))
    db = TrajectoryDatabase(StateSpace(rng.uniform(0, 10, size=(n_states, ndim))), chain)
    for i in range(n_objects):
        start = int(rng.integers(0, 8))
        life = 0 if i % 4 == 3 else int(rng.integers(2, HORIZON - start + 1))
        walk = [int(rng.integers(n_states))]
        for t in range(start, start + life):
            nxt, probs = chain.successors(walk[-1], t)
            walk.append(int(rng.choice(nxt, p=probs)))
        inner = rng.uniform(size=max(life - 1, 0)) < 0.3
        fixes = sorted({0, life, *(np.flatnonzero(inner) + 1).tolist()})
        db.add_object(f"o{i}", [(start + t, walk[t]) for t in fixes])
    return db, rng


TIME_SETS = {
    "contiguous": np.arange(3, 10),
    "sparse": np.array([1, 4, 9, 13]),
    "unsorted": np.array([9, 2, 5, 3]),
    "before every lifespan": np.array([-6, -5, -4]),
    "after every lifespan": np.array([HORIZON + 20, HORIZON + 21]),
    "partly outside": np.array([-2, 0, 3, HORIZON + 9]),
}


def _assert_kernel_parity(tree, oracle, coords, times, k):
    """``tree.prune_many`` against ``oracle``'s per-query ``prune`` and the
    reference loop over ``oracle``'s database (``tree`` may be a patched
    index, ``oracle`` a fresh one)."""
    batch = tree.prune_many(coords, times, k)
    assert len(batch) == len(coords)
    for result, q_coords in zip(batch, coords):
        same_pruning(result, oracle.prune(q_coords, times, k=k))
        same_pruning(result, prune_reference(oracle.db, q_coords, times, k))


class TestPruneMany:
    @pytest.mark.parametrize("n_queries", [1, 5, 17])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_random_databases_bit_identical(self, ndim, n_queries):
        """Static and moving queries, every window shape, NN to k beyond
        the population: each batched result equals the per-query filter
        and the reference loop, bounds and dtypes included."""
        db, rng = _random_db(seed=n_queries, ndim=ndim)
        tree = USTTree(db)
        assert any(len(db.diamonds_of(oid)) == 1 for oid in db.object_ids)
        assert any(len(db.diamonds_of(oid)) > 2 for oid in db.object_ids)
        for label, times in TIME_SETS.items():
            static = np.repeat(
                rng.uniform(0, 10, size=(n_queries, 1, ndim)), times.size, axis=1
            )
            moving = rng.uniform(-2, 12, size=(n_queries, times.size, ndim))
            for k in (1, 2, 3, len(db) + 5):
                _assert_kernel_parity(tree, tree, static, times, k)
                _assert_kernel_parity(tree, tree, moving, times, k)

    def test_from_coords_queries_share_one_pass(self):
        """``Query.from_coords`` tables stack into one batch."""
        db, rng = _random_db(seed=2, ndim=2)
        tree = USTTree(db)
        times = TIME_SETS["contiguous"]
        queries = [
            Query.from_coords(rng.uniform(0, 10, size=(times.size, 2)))
            for _ in range(4)
        ]
        coords = np.stack([q.coords_at(times) for q in queries])
        _assert_kernel_parity(tree, tree, coords, times, 2)

    def test_empty_batch_and_empty_index(self):
        db, _ = _random_db(seed=1, ndim=2)
        times = TIME_SETS["contiguous"]
        assert USTTree(db).prune_many(np.empty((0, times.size, 2)), times) == []
        for oid in db.object_ids:
            db.remove_object(oid)
        (result,) = USTTree(db).prune_many(np.zeros((1, times.size, 2)), times)
        assert result.candidates == [] and result.influencers == []
        assert result.examined_entries == 0 and result.dmin_bounds == {}

    @pytest.mark.stream
    @pytest.mark.parametrize("seed", [3, 17])
    def test_patched_table_matches_fresh_build_after_every_event(self, seed):
        """The ``test_segment_reuse.py`` random histories — head appends,
        interior refinements, fixes before the first one, removals, re-added
        ids: the table ``update_object`` patches answers like one built from
        scratch."""
        world = MutatingWorld(seed)
        rng = np.random.default_rng(seed)
        for _ in range(40):
            event = world.random_event()
            if event is None:
                continue
            world.apply(event)
            world.sync_tree()
            oracle = USTTree(world.db)
            assert len(world.tree) == len(oracle)
            for request in world.requests():
                times = np.asarray(request.times)
                coords = np.concatenate(
                    (
                        request.query.coords_at(times)[None],
                        rng.uniform(0, 10, size=(4, times.size, 2)),
                    )
                )
                for k in (1, 2):
                    _assert_kernel_parity(world.tree, oracle, coords, times, k)


# ----------------------------------------------------------------------
# the native scan: C pass vs numpy scan vs the reference loop
# ----------------------------------------------------------------------
#: An engine on the native backend scans in C wherever the tier loads (on a
#: ``REPRO_DISABLE_NATIVE=1`` run these cases hold the numpy fallback).
NATIVE = native.available()


def _three_way(tree, coords, times, k):
    """The native scan equals the numpy scan and the reference loop, every
    field of every result to the byte."""
    tree.native = NATIVE
    scanned = tree.prune_many(coords, times, k)
    tree.native = False
    numpy_scan = tree.prune_many(coords, times, k)
    assert len(scanned) == len(numpy_scan) == len(coords)
    for got, want, q_coords in zip(scanned, numpy_scan, coords):
        same_pruning(got, want)
        same_pruning(got, prune_reference(tree.db, q_coords, times, k))
    return scanned


@pytest.mark.native
class TestNativeScan:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_random_databases(self, ndim, k):
        """Multi-slot rows (interior fixes are covered by two diamonds),
        single-tic objects, static and moving queries, windows before,
        after and partly outside every lifespan."""
        db, rng = _random_db(seed=k, ndim=ndim)
        tree = USTTree(db)
        assert tree._rect.shape[1] > 1
        for times in TIME_SETS.values():
            for coords in (
                np.repeat(rng.uniform(0, 10, size=(6, 1, ndim)), times.size, axis=1),
                rng.uniform(-2, 12, size=(6, times.size, ndim)),
            ):
                _three_way(tree, coords, times, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dead_rows_inside_a_span(self, k):
        """A tic no diamond covers holds the empty rect inside the span:
        not alive, bounds +inf, never a candidate."""

        def s(*states):
            return np.asarray(states, dtype=np.intp)

        coords = np.array([[0.0, 0.0], [2.0, 0.0], [6.0, 0.0], [8.0, 0.0]])
        dense = np.full((4, 4), 0.25)
        db = TrajectoryDatabase(StateSpace(coords), MarkovChain(sparse.csr_matrix(dense)))
        for name, first in (("a", 0), ("b", 1), ("c", 2)):
            db.add_object(name, [(first, 0), (first + 5, 3)])
        db.get("a")._diamonds = [
            Diamond(t_start=0, t_end=1, states_per_tic=[s(0), s(0, 1)]),
            Diamond(t_start=3, t_end=5, states_per_tic=[s(1, 2), s(2), s(3)]),
        ]
        tree = USTTree(db)
        times = np.array([-1, 1, 2, 4, 9])
        results = _three_way(tree, np.full((2, times.size, 2), [[1.0, 0.0]]), times, k)
        dmin = results[0].dmin_bounds["a"]
        assert np.isinf(dmin[[0, 2, 4]]).all() and np.isfinite(dmin[[1, 3]]).all()
        assert "a" not in results[0].candidates

    def test_tied_bounds(self):
        db = _pinned_world(TestDuplicateDistanceTies.POSITIONS)
        times = np.arange(0, 5)
        for k in (1, 2, 3, 5, 6, 7):
            _three_way(USTTree(db), np.zeros((3, len(times), 2)), times, k)

    def test_patched_table_and_empty_index(self):
        db, rng = _random_db(seed=5, ndim=2)
        tree = USTTree(db)
        times = TIME_SETS["partly outside"]
        for oid in db.object_ids[::2]:
            db.remove_object(oid)
            tree.update_object(oid)
            _three_way(tree, rng.uniform(0, 10, size=(3, times.size, 2)), times, 2)
        for oid in db.object_ids:
            db.remove_object(oid)
            tree.update_object(oid)
        (result,) = _three_way(tree, np.zeros((1, times.size, 2)), times, 1)
        assert result.candidates == [] and result.examined_entries == 0
        tree.native = NATIVE
        assert tree.prune_many(np.empty((0, times.size, 2)), times) == []

    def test_engine_binds_its_backend(self, monkeypatch):
        """A native engine's filter takes the C scan, a compiled one the
        numpy scan — both ways to the same result."""
        from repro.core.evaluator import QueryEngine

        db, rng = _random_db(seed=2, ndim=2)
        scans = []
        prune_scan = native.prune_scan
        monkeypatch.setattr(
            native, "prune_scan", lambda *a: scans.append(1) or prune_scan(*a)
        )
        q = Query.from_point(rng.uniform(0, 10, size=2))
        backends = ["compiled"] + (["native"] if NATIVE else [])
        results = []
        for backend in backends:
            engine = QueryEngine(db, seed=1, backend=backend)
            assert engine.ust_tree.native == (backend == "native")
            results.append(engine.filter_objects(q, TIME_SETS["contiguous"], 2))
        assert len(scans) == (1 if NATIVE else 0)
        for result in results[1:]:
            same_pruning(result, results[0])
