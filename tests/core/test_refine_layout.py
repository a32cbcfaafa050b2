"""The refinement memory order and its byte identity.

Everything between the sampler's sweep buffer and the NN counter keeps the
world axis as the unit-stride one — states are transposed views of tic-major
``(width, n)`` buffers, distances of one C-contiguous ``(objects, times, n)``
block — while every public shape stays ``(worlds, …)``.  Three things are
pinned here:

* **the layout contract**: ``arr.strides[world_axis] == arr.itemsize`` at
  every hand-off, and no copy between the sweep and the world cache.  numpy
  allocates in C order, so one ``.copy()``, ``np.ascontiguousarray`` or
  ``np.concatenate(..., axis=1)`` on the way silently re-materialises
  world-major — values stay right and only these assertions notice;
* **byte identity** with the world-major kernel this order replaced, kept
  in ``tests/oracles/`` (tile/scatter distances, ``np.partition`` indicator);
* **one k = 1 predicate**: ``knn_indicator(d, 1)`` (exact ``<=``) equals the
  partition form everywhere.
"""

from contextlib import ExitStack

import numpy as np
import pytest

import repro.core.evaluator as evaluator_module
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query
from repro.markov import native
from repro.markov.arena import (
    FUSED_DRAW_THRESHOLD,
    ArenaRequest,
    SamplingArena,
    sample_paths_arena,
)
from repro.serve import ServeCoordinator
from repro.trajectory.nn import (
    exists_knn_prob,
    forall_knn_prob,
    knn_indicator,
)
from tests.oracles import (
    loop_distance_tensor,
    partition_indicator,
    reference_sample_paths,
    world_major_distances,
)
from tests.oracles.shapes import REQUEST_SHAPES as CASES
from tests.oracles.shapes import STAGGERED_IDS as IDS
from tests.oracles.shapes import staggered_db as _db

pytestmark = pytest.mark.oracles

N = 96
Q = Query.from_point([4.0, 6.0])

requires_native = pytest.mark.skipif(
    not native.available(),
    reason=f"native tier unavailable ({native.unavailable_reason()})",
)


def _world_minor(arr, world_axis=0):
    return arr.strides[world_axis] == arr.itemsize


#: name -> engine kwargs.  ``standalone`` is the ad-hoc path (fresh worlds
#: per call, straight from the arena); a ``*shared`` engine runs the whole
#: test inside one ``held_batch()``, so its worlds stay cached.
ENGINES = {
    "standalone": {},
    "shared": {},
    "native": {"backend": "native"},
    "native_shared": {"backend": "native"},
}


@pytest.fixture
def make_engine():
    """``make_engine(kind, db)``: an engine of ``ENGINES[kind]``, held in a
    batch until the test ends when ``kind`` is a shared one."""
    with ExitStack() as held:

        def make(kind, db):
            if kind.startswith("native") and not native.available():
                pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
            engine = QueryEngine(db, n_samples=N, seed=5, **ENGINES[kind])
            if kind.endswith("shared"):
                held.enter_context(engine.held_batch())
            return engine

        yield make


@pytest.fixture
def sweeps(monkeypatch):
    """Every ``sample_paths_arena`` call the engine makes: ``(requests, outputs)``."""
    calls = []

    def recording(arena, requests, n, **kwargs):
        out = sample_paths_arena(arena, requests, n, **kwargs)
        calls.append((list(requests), out))
        return out

    monkeypatch.setattr(evaluator_module, "sample_paths_arena", recording)
    return calls


def _sampled_states(engine, sweeps, db, ids, times):
    """World-major copies of the states behind the engine's last tensor."""
    alive = db.alive_matrix(ids, times)
    drawn = {
        req.object_id: (req.t_lo, out)
        for requests, outs in sweeps
        for req, out in zip(requests, outs)
    }
    states = []
    for col in np.flatnonzero(alive.any(axis=1)):
        seg = engine.worlds.peek((ids[col], N))
        t_first, paths = (seg.t_first, seg.states) if seg is not None else drawn[ids[col]]
        states.append(np.ascontiguousarray(paths[:, times[alive[col]] - t_first]))
    return alive, states


# --------------------------------------------------------------------------
# (b) byte identity with the world-major oracle
# --------------------------------------------------------------------------
class TestByteIdentityWithWorldMajorOracle:
    @pytest.mark.parametrize("kind", sorted(ENGINES))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_distances_indicators_and_probabilities(self, kind, case, sweeps, make_engine):
        db = _db()
        ids, times = CASES[case]
        times = np.asarray(times, dtype=np.intp)
        engine = make_engine(kind, db)
        dist = engine.distance_tensor(ids, Q, times)
        assert dist.shape == (N, len(ids), times.size)
        assert dist.dtype == np.float64
        assert _world_minor(dist), dist.strides
        assert dist.transpose(1, 2, 0).flags.c_contiguous

        alive, states = _sampled_states(engine, sweeps, db, ids, times)
        want = world_major_distances(db.space, Q.coords_at(times), times, alive, states, N)
        assert want.flags.c_contiguous
        assert np.array_equal(dist, want)
        assert np.array_equal(np.isinf(dist), ~np.broadcast_to(alive, dist.shape))

        for k in (1, 2, 3, len(ids) + 1):
            got = knn_indicator(dist, k)
            ref = partition_indicator(want, k)
            assert got.dtype == ref.dtype == np.bool_
            assert np.array_equal(got, ref), k
            for prob, reduce in (
                (forall_knn_prob, np.all),
                (exists_knn_prob, np.any),
            ):
                p = prob(dist, k)
                p_ref = reduce(ref, axis=2).mean(axis=0)
                assert p.dtype == p_ref.dtype == np.float64
                assert np.array_equal(p, p_ref), (k, prob.__name__)

    def test_the_fixture_has_exact_ties_and_inf_columns(self, make_engine):
        """The twin is sampled into its sibling's state at their shared
        fixes: both are nearest (or neither), never one without the other."""
        db = _db()
        times = np.arange(3, 9)
        dist = make_engine("standalone", db).distance_tensor(IDS, Q, times)
        a, b, fix = IDS.index("o0"), IDS.index("twin"), int(np.flatnonzero(times == 4)[0])
        assert np.array_equal(dist[:, a, fix], dist[:, b, fix])
        is_nn = knn_indicator(dist, 1)
        assert np.array_equal(is_nn[:, a, fix], is_nn[:, b, fix])
        assert is_nn[:, a, fix].any()
        assert np.isinf(dist[:, IDS.index("early"), -1]).all()
        assert np.isinf(dist[:, IDS.index("late"), 0]).all()

    @pytest.mark.parametrize("ndim", [1, 2, 3, 9])
    @pytest.mark.parametrize("kind", ["shared", "native_shared"])
    def test_distance_table_in_any_dimension(self, kind, ndim, make_engine):
        """The per-(tic, state) table is built dimension-major where a norm
        has at most one addition (d <= 2) and in ``np.sum``'s own order
        beyond; either way it is the per-object oracle's arithmetic."""
        from repro.statespace.base import StateSpace
        from repro.trajectory.database import TrajectoryDatabase

        flat = _db()
        coords = np.random.default_rng(ndim).uniform(0, 10, size=(flat.space.n_states, ndim))
        db = TrajectoryDatabase(StateSpace(coords), flat.chain)
        for obj in flat:
            db.add_object(obj.object_id, obj.observations.as_pairs())
        q = Query.from_point(np.full(ndim, 5.0))
        times = np.arange(3, 9)
        engine = make_engine(kind, db)
        fused = engine.distance_tensor(IDS, q, times)
        assert np.isfinite(fused).any()
        assert np.array_equal(fused, loop_distance_tensor(engine, IDS, q, times))

    @pytest.mark.parametrize("kind", ["shared", "native_shared"])
    def test_reverse_tensors_match_the_forward_block(self, kind, make_engine):
        """The reverse direction reads the same worlds through the same
        order: its query distances are the forward tensor, bit for bit."""
        db = _db()
        times = np.arange(3, 9)
        engine = make_engine(kind, db)
        dist, object_dist = engine.reverse_distance_tensors(IDS, Q, times)
        assert _world_minor(dist) and _world_minor(object_dist)
        assert dist.shape == (N, len(IDS), times.size)
        assert object_dist.shape == (N, len(IDS), len(IDS), times.size)
        assert np.array_equal(dist, engine.distance_tensor(IDS, Q, times))
        # d(a, o) = d(o, a), inf on the diagonal and wherever one is dead.
        assert np.array_equal(object_dist, object_dist.transpose(0, 2, 1, 3))
        assert np.isinf(object_dist[:, np.arange(len(IDS)), np.arange(len(IDS))]).all()
        dead = ~db.alive_matrix(IDS, times)
        assert np.isinf(object_dist[:, dead[:, None, :] | dead[None, :, :]]).all()
        twin_pair = object_dist[:, IDS.index("o0"), IDS.index("twin"), 1]  # tic 4
        assert np.array_equal(twin_pair, np.zeros(N))


# --------------------------------------------------------------------------
# (a) the layout contract at every hand-off
# --------------------------------------------------------------------------
def _arena_and_requests(db, windows, seed=0, c_sweep=False):
    arena = SamplingArena(native=c_sweep)
    for oid in sorted(windows):
        arena.ensure(oid, db.get(oid).compiled)

    def requests():
        return [
            ArenaRequest(oid, *windows[oid], rng=np.random.default_rng((seed, i)))
            for i, oid in enumerate(sorted(windows))
        ]

    return arena, requests


class TestSamplerHandsOutItsSweepOrder:
    WINDOWS = {"o0": (2, 9), "o1": (0, 12), "early": (1, 5), "late": (6, 14)}
    LOCKSTEP = {"o0": (3, 8), "o1": (3, 8), "o2": (3, 8)}

    @pytest.mark.parametrize("use_native", [False, pytest.param(True, marks=requires_native)])
    @pytest.mark.parametrize("windows", [WINDOWS, LOCKSTEP], ids=["ragged", "lockstep"])
    def test_arena_results_are_views_of_one_buffer(self, use_native, windows):
        arena, requests = _arena_and_requests(_db(), windows, c_sweep=use_native)
        drawn = sample_paths_arena(arena, requests(), N)
        for oid, paths in zip(sorted(windows), drawn):
            lo, hi = windows[oid]
            assert paths.shape == (N, hi - lo + 1)
            assert _world_minor(paths), (oid, paths.strides)
            assert paths.T.flags.c_contiguous
            assert paths.base is drawn[0].base  # slabs of the sweep buffer

    def test_small_draw_path_per_object_sampler(self):
        """``CompiledModel.sample_paths`` — what the numpy sweep uses for
        ``FUSED_DRAW_THRESHOLD`` requests or fewer — and the reference walk
        hand out the same order."""
        obj = _db().get("o1")
        for name, sample in (
            ("compiled", obj.adapted.sample_paths),
            ("reference", lambda *args, **kw: reference_sample_paths(obj.adapted, *args, **kw)),
        ):
            paths = sample(np.random.default_rng(3), N, 2, 9)
            assert paths.shape == (N, 8)
            assert _world_minor(paths), name
            resumed = sample(np.random.default_rng(4), N, 9, 11, start_states=paths[:, -1])
            assert _world_minor(resumed), name
        sparse = obj.sample_states(np.array([1, 4, 9]), N, np.random.default_rng(5))
        assert sparse.shape == (N, 3) and _world_minor(sparse)


class TestWorldCacheKeepsTheOrder:
    @pytest.mark.parametrize("kind", ["shared", "native_shared"])
    def test_fresh_draw_is_the_sweep_buffer_itself(self, kind, sweeps, make_engine):
        """No copy between the sweep and the cache."""
        db = _db()
        engine = make_engine(kind, db)
        engine.distance_tensor(IDS, Q, np.arange(3, 8))
        (requests, outputs), = sweeps
        assert len(requests) == len(IDS) > FUSED_DRAW_THRESHOLD
        for req, paths in zip(requests, outputs):
            seg = engine.worlds.peek((req.object_id, N))
            assert _world_minor(seg.states), req.object_id
            assert np.shares_memory(paths, seg.states)
            assert seg.states.shape == paths.shape

    @pytest.mark.parametrize("ids", [IDS, ["o0", "o1"]], ids=["arena", "small_draw"])
    @pytest.mark.parametrize("kind", ["shared", "native_shared"])
    def test_forward_extensions_append_rows(self, kind, ids, make_engine):
        """Three growing windows: a fresh draw and two forward extensions,
        through the fused sweep (7 draws) and — on the numpy sweep — the
        per-object path under ``FUSED_DRAW_THRESHOLD`` (2 draws).  The grown segment equals a
        one-shot draw of the union window, in the same memory order."""
        db = _db()
        engine = make_engine(kind, db)
        for hi in (6, 8, 11):
            engine.distance_tensor(ids, Q, np.arange(2, hi))
        assert engine.worlds.partial_hits.value >= 2
        one_shot = make_engine(kind, db)
        one_shot.distance_tensor(ids, Q, np.arange(2, 11))
        for oid in ids:
            key = (oid, N)
            seg, ref = engine.worlds.peek(key), one_shot.worlds.peek(key)
            assert _world_minor(seg.states), (oid, seg.states.strides)
            assert seg.states.T.flags.c_contiguous
            assert seg.states[:, -1].flags.c_contiguous  # the resume anchor
            assert (seg.t_first, seg.t_last) == (ref.t_first, ref.t_last)
            assert np.array_equal(seg.states, ref.states)

    def test_slices_stay_world_minor(self, make_engine):
        db = _db()
        engine = make_engine("shared", db)
        engine.distance_tensor(IDS, Q, np.arange(1, 12))
        seg = engine.worlds.peek(("o1", N))
        window = seg.slice(np.arange(3, 9))
        assert np.shares_memory(window, seg.states)  # contiguous: a view
        assert _world_minor(window)
        sparse = seg.slice(np.array([1, 4, 8, 11]))
        assert _world_minor(sparse) and sparse.T.flags.c_contiguous
        assert np.array_equal(sparse, seg.states[:, [0, 3, 7, 10]])
        assert np.array_equal(window, seg.states[:, 2:8])


class TestDistanceBlockKeepsTheOrder:
    def test_dirty_column_patch_is_one_slab_of_the_cached_block(self, make_engine):
        """A tick's refine-cache hit patches the mutated object's slab in
        place; the patched block equals a from-scratch one on the mutated
        database."""
        db = _db()
        times = np.arange(3, 9)
        engine = make_engine("standalone", db)
        with engine.held_batch(1, (3, 8)):
            first = engine.distance_tensor(IDS, Q, times)
            before = first.copy()
            db.add_observation("o2", 6, int(db.get("o2").sample_states(
                np.array([6]), 1, np.random.default_rng(0))[0, 0]))
            patched = engine.distance_tensor(IDS, Q, times)
        assert engine.estimate_cache_hits.value == 1
        assert engine.estimate_columns_refreshed.value == len(IDS) + 1
        assert np.shares_memory(first, patched)  # the cached block, patched
        assert _world_minor(patched) and patched.transpose(1, 2, 0).flags.c_contiguous
        col = IDS.index("o2")
        clean = [c for c in range(len(IDS)) if c != col]
        assert np.array_equal(patched[:, clean], before[:, clean])
        assert not np.array_equal(patched[:, col], before[:, col])
        scratch = make_engine("standalone", db)
        with scratch.held_batch(1, (3, 8)):
            assert np.array_equal(patched, scratch.distance_tensor(IDS, Q, times))

    def test_serve_tier_lays_the_tensor_out_the_same_way(self, make_engine):
        """Coordinator and workers speak ``(objects, times, worlds)``: a
        worker returns whole object slabs in its reply, and the gathered
        tensor is the single-process one in the same order."""
        db = _db()
        times = np.arange(3, 9)
        coord = ServeCoordinator(_db(), n_shards=2, seed=5, n_samples=N)
        try:
            transport = coord.engine._transport
            jobs = []
            broadcast = transport.broadcast

            def recording(commands):
                jobs.extend(j for c in commands.values() for j in getattr(c, "jobs", ()))
                return broadcast(commands)

            transport.broadcast = recording
            with coord.engine.held_batch(1, (3, 8)):
                dist = coord.engine.distance_tensor(IDS, Q, times)
                reverse, object_dist = coord.engine.reverse_distance_tensors(IDS, Q, times)
        finally:
            coord.close()
        assert {j.kind for j in jobs} == {"dist", "states"}
        for job in jobs:
            assert len(job.col_index) < len(IDS)  # a shard owns some slabs
        assert _world_minor(dist) and dist.transpose(1, 2, 0).flags.c_contiguous
        assert _world_minor(reverse) and _world_minor(object_dist)
        single = make_engine("standalone", db)
        with single.held_batch(1, (3, 8)):
            assert np.array_equal(dist, single.distance_tensor(IDS, Q, times))
            want, want_od = single.reverse_distance_tensors(IDS, Q, times)
        assert np.array_equal(reverse, want) and np.array_equal(object_dist, want_od)


# --------------------------------------------------------------------------
# (c) one k = 1 predicate
# --------------------------------------------------------------------------
class TestOneNearestPredicate:
    @pytest.mark.parametrize("seed", range(6))
    def test_min_form_equals_partition_form(self, seed):
        """Random, tied and partly-dead tensors, world-major and world-minor."""
        rng = np.random.default_rng(seed)
        shape = (40, int(rng.integers(2, 7)), int(rng.integers(1, 6)))
        dist = rng.uniform(0.0, 10.0, size=shape)
        dist[rng.uniform(size=shape) < 0.3] = rng.choice(dist.ravel(), size=1)  # ties
        dist[rng.uniform(size=shape) < 0.2] = np.inf
        dist[:, :, 0] = np.where(seed % 2, np.inf, dist[:, :, 0])  # an all-dead tic
        for arr in (dist, np.ascontiguousarray(dist.transpose(1, 2, 0)).transpose(2, 0, 1)):
            for k in (1, 2, shape[1]):
                assert np.array_equal(knn_indicator(arr, k), partition_indicator(dist, k))
