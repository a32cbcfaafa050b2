"""Stage × oracle × shape: the default engine against ``tests/oracles/``.

One engine configuration ships — batched adaptation, compiled layers, the
fused arena (numpy or C), the per-tic bound table, the world-minor
refinement block, the bitmap miner — and every stage of it is held here,
byte for byte, to the slow-and-obvious function that states what it must
compute.  Rows are stages, columns the worlds and request shapes of
:mod:`tests.oracles.shapes`; wherever a stage touches the sampler the row
runs on ``backend="compiled"`` and, when the C tier builds, on
``backend="native"``.

This module replaced the products over the removed engine switches
(``fused``, ``incremental``, ``window_restrict``, ``prune_vectorized``,
``refine_per_tic``, ``backend="reference"``): a behaviour those suites
pinned survives here once, as a comparison with an oracle instead of with
a second engine mode.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.core.worlds import WorldCache
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from repro.markov.chain import MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.stream.monitor import ContinuousMonitor, _result_payload
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.nn import knn_indicator
from tests.conftest import make_random_world
from tests.oracles import (
    checking_distances,
    loop_distance_tensor,
    loop_object_distances,
    partition_indicator,
    prune_reference,
    reference_adapt,
    reference_layer,
    reference_mine,
    reference_sample_paths,
    same_array,
    same_distributions,
    same_pruning,
    same_transitions,
)
from tests.oracles.shapes import (
    BACKENDS,
    REQUEST_SHAPES,
    STAGGERED_IDS,
    TOPOLOGIES,
    staggered_db,
)

pytestmark = pytest.mark.oracles

def _random_world(seed, n_objects=5):
    db, _ = make_random_world(seed=seed, n_states=12, n_objects=n_objects, span=12, obs_every=4)
    return db


#: name -> (db builder, query builder, times): the paper's running example
#: and the other two enumeration-sized topologies, then random worlds.
WORLDS = {
    **TOPOLOGIES,
    **{
        f"world{seed}": (
            lambda seed=seed: _random_world(seed),
            lambda: Query.from_point([5.0, 5.0]),
            tuple(range(4, 8)),
        )
        for seed in (0, 1, 2)
    },
}


def _world(name):
    build_db, build_q, times = WORLDS[name]
    return build_db(), build_q(), np.asarray(times, dtype=np.intp)


# ----------------------------------------------------------------------
# Algorithm 2 and the compiled layers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_adaptation_and_layers(world):
    db, _, _ = _world(world)
    for obj in db:
        context = (world, obj.object_id)
        transitions, posteriors, forwards = reference_adapt(
            obj.chain, obj.observations.as_pairs(), obj.extend_to
        )
        same_transitions(obj.adapted.transitions, transitions, (*context, "F"))
        same_distributions(obj.adapted.posteriors, posteriors, (*context, "posterior"))
        same_distributions(obj.adapted.forwards, forwards, (*context, "forward"))
        for t, rows in transitions.items():
            want = reference_layer(rows, posteriors[t + 1].states)
            for name, array in want.items():
                same_array(getattr(obj.compiled.layer(t), name), array, (*context, t, name))


# ----------------------------------------------------------------------
# § 5 sampling: compiled sampler, numpy arena, C arena
# ----------------------------------------------------------------------
def _arena_sample(use_native):
    def sample(model, rng, n, t_lo, t_hi, start_states=None):
        arena = SamplingArena(native=use_native)
        arena.ensure("o", model.compiled, order=0)
        request = ArenaRequest("o", t_lo, t_hi, rng, start_states=start_states)
        return sample_paths_arena(arena, [request], n)[0]

    return sample


SAMPLERS = {
    "compiled": lambda model, *args, **kw: model.sample_paths(*args, **kw),
    "arena": _arena_sample(False),
    "native_arena": _arena_sample(True),
}


@pytest.mark.parametrize(
    "sampler",
    ["compiled", "arena", pytest.param("native_arena", marks=BACKENDS[1].marks)],
)
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_sampling(world, sampler):
    """Full span, a window, and a resumed window: same states, and the
    generator parked at the same stream position."""
    db, _, _ = _world(world)
    sample = SAMPLERS[sampler]
    for i, obj in enumerate(db):
        model = obj.adapted
        mid = (model.t_first + model.t_last) // 2
        got_rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
        head = sample(model, got_rng, 48, model.t_first, mid)
        want = reference_sample_paths(model, want_rng, 48, model.t_first, mid)
        assert np.array_equal(head, want), (world, obj.object_id)
        tail = sample(model, got_rng, 48, mid, model.t_last, start_states=head[:, -1])
        want = reference_sample_paths(model, want_rng, 48, mid, model.t_last, want[:, -1])
        assert np.array_equal(tail, want), (world, obj.object_id)
        assert got_rng.random() == want_rng.random()


# ----------------------------------------------------------------------
# § 6 filter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("depth", ["k1", "k2", "beyond_population"])
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_filter(world, depth):
    db, q, times = _world(world)
    k = {"k1": 1, "k2": 2, "beyond_population": len(db) + 3}[depth]
    tree = USTTree(db)
    rng = np.random.default_rng(7)
    for window in (times, times[::2], times[:1]):  # full grid, sparse, one tic
        moving = rng.uniform(0, 10, size=(window.size, db.space.ndim))
        coords = np.stack([q.coords_at(window), moving])
        for got, q_coords in zip(tree.prune_many(coords, window, k), coords):
            context = (world, k, window.tolist())
            same_pruning(got, prune_reference(db, q_coords, window, k), context)
            same_pruning(tree.prune(q_coords, window, k), got, context)


# ----------------------------------------------------------------------
# refinement: distance block, reverse tensors, NN indicator
# ----------------------------------------------------------------------
ENGINE_KINDS = {
    "standalone": {},
    "shared": {"reuse_worlds": True},
    "native": {"backend": "native"},
    "native_shared": {"backend": "native", "reuse_worlds": True},
}


@pytest.mark.parametrize(
    "kind",
    [
        pytest.param(kind, marks=BACKENDS[1].marks if kind.startswith("native") else ())
        for kind in sorted(ENGINE_KINDS)
    ],
)
@pytest.mark.parametrize("shape", sorted(REQUEST_SHAPES))
def test_refinement_tensors(shape, kind):
    """Full grid, partly alive, sparse times, one tic, a tic nobody lives
    at, a repeated id: ad-hoc draws straight from the arena and cached
    ones, forward and reverse, and the indicator on top."""
    ids, times = REQUEST_SHAPES[shape]
    times = np.asarray(times, dtype=np.intp)
    q = Query.from_point([4.0, 6.0])
    engine = QueryEngine(staggered_db(), n_samples=64, seed=5, **ENGINE_KINDS[kind])
    dist = engine.distance_tensor(ids, q, times)
    assert np.array_equal(dist, loop_distance_tensor(engine, ids, q, times))
    for k in (1, 2, len(ids) + 1):
        assert np.array_equal(knn_indicator(dist, k), partition_indicator(dist, k)), k
    reverse, object_dist = engine.reverse_distance_tensors(ids, q, times)
    assert np.array_equal(reverse, loop_distance_tensor(engine, ids, q, times))
    assert np.array_equal(object_dist, loop_object_distances(engine, ids, times))


# ----------------------------------------------------------------------
# the pipeline: answers recomputed from oracles alone
# ----------------------------------------------------------------------
def _entries(result):
    return [(e.object_id, e.times, e.probability) for e in result.entries]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["forall", "exists", "raw_k2", "pcnn"])
@pytest.mark.parametrize("world", sorted(WORLDS))
def test_answers_from_oracles_alone(world, mode, backend):
    """Reference filter → per-object row-dict draws → ``np.partition``
    indicator → world counting / level-wise mining: the same answer, to
    the last bit, as ``evaluate``."""
    db, q, times = _world(world)
    mode, k = ("raw", 2) if mode == "raw_k2" else (mode, 1)
    if k > len(db.objects_overlapping(times)):
        pytest.skip("fewer objects than the kNN depth")
    engine = QueryEngine(db, n_samples=200, seed=17, backend=backend)
    result = engine.evaluate(QueryRequest(q, tuple(times.tolist()), mode, 0.1, k))

    pruning = prune_reference(db, q.coords_at(times), times, k)
    assert result.candidates == pruning.candidates
    assert result.influencers == pruning.influencers
    ids = pruning.influencers
    report = result.report
    assert (report.n_candidates, report.n_influencers) == (len(pruning.candidates), len(ids))
    assert (report.sampled_objects, report.n_samples) == (len(ids), 200)
    assert (report.cache_hits, report.cache_partial_hits, report.cache_misses) == (0, 0, 0)
    is_nn = partition_indicator(loop_distance_tensor(engine, ids, q, times), k)
    forall = dict(zip(ids, is_nn.all(axis=2).mean(axis=0).tolist()))
    exists = dict(zip(ids, is_nn.any(axis=2).mean(axis=0).tolist()))
    if mode == "forall":
        assert result.probabilities == {oid: forall[oid] for oid in pruning.candidates}
    elif mode == "exists":
        assert result.probabilities == exists
    elif mode == "raw":
        assert (result.forall, result.exists) == (forall, exists)
    else:
        mined = [
            (oid, timeset, p)
            for col, oid in enumerate(ids)
            for timeset, p in reference_mine(is_nn[:, col, :], times, 0.1)[0]
        ]
        assert _entries(result) == mined


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("estimator", ["sampled", "hybrid", "adaptive"])
@pytest.mark.parametrize("seed", [0, 1])
def test_every_estimator_counts_over_the_oracle_worlds(seed, estimator, backend):
    db = _random_world(seed)
    q = Query.from_point([5.0, 5.0])
    precision = (0.05, 0.05) if estimator == "adaptive" else None
    engine = QueryEngine(db, n_samples=250, seed=17, backend=backend, use_pruning=False)
    with checking_distances(engine) as checked:
        for mode in ("forall", "exists"):
            engine.evaluate(
                QueryRequest(
                    q, tuple(range(2, 10)), mode, 0.1, estimator=estimator, precision=precision
                )
            )
    assert checked


# ----------------------------------------------------------------------
# the world cache under the pipeline: hit / partial hit / miss / fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_sliding_batch_draws_each_object_once(backend):
    """One batch shares one epoch's worlds: each object is drawn once over
    the union window, every later window of the batch is a hit."""
    db = _random_world(4, n_objects=4)
    q = Query.from_point([5.0, 5.0])
    engine = QueryEngine(db, n_samples=250, seed=17, backend=backend, use_pruning=False)
    requests = [QueryRequest(q, tuple(range(t, t + 4))) for t in range(0, 8, 2)]
    with checking_distances(engine) as checked:
        engine.evaluate_many(requests)
    assert len(checked) == len(requests)
    assert engine.worlds.misses.value == engine.sampler_calls == len(db)
    assert engine.worlds.partial_hits.value == 0
    assert engine.worlds.hits.value == (len(requests) - 1) * len(db)


@pytest.mark.parametrize("backend", BACKENDS)
def test_held_epoch_extensions_and_backward_fallback(backend):
    """Two forward extensions (resumed draws), a covered window (hits) and
    one request reaching before the anchor (a fresh draw of the union
    window): after each, the cached worlds are one draw of the window they
    cover now."""
    db = _random_world(6, n_objects=4)
    q = Query.from_point([5.0, 5.0])
    engine = QueryEngine(db, n_samples=250, seed=17, backend=backend, use_pruning=False)
    n = len(db)
    steps = [  # times, then the (hits, partial hits, misses) the step adds
        ((3, 4, 5), (0, 0, n)),
        ((4, 5, 6, 7), (0, n, 0)),
        ((7, 8, 9), (0, n, 0)),
        ((4, 5), (n, 0, 0)),
        ((1, 2, 3, 4), (0, 0, n)),
    ]
    with checking_distances(engine) as checked:
        for i, (times, added) in enumerate(steps):
            cache = engine.worlds
            before = (cache.hits.value, cache.partial_hits.value, cache.misses.value)
            (result,) = engine.evaluate_many(
                [QueryRequest(q, times)], refresh_worlds=i == 0
            )
            after = (cache.hits.value, cache.partial_hits.value, cache.misses.value)
            assert tuple(a - b for a, b in zip(after, before)) == added, times
            report = result.report
            assert (
                report.cache_hits, report.cache_partial_hits, report.cache_misses
            ) == added
    assert len(checked) == len(steps)
    for obj in db:  # the backward fallback redrew the union window [1, 9]
        segment = engine.worlds.peek((obj.object_id, 250))
        assert (segment.t_first, segment.t_last) == (1, 9)


@pytest.mark.parametrize("capacity", [1, 2, 3])
def test_bulk_lookup_under_capacity_pressure_is_the_sequential_one(capacity):
    """A lookup whose members exceed the cache capacity evicts mid-lookup:
    one bulk ``prefetch_worlds`` classifies, counts, evicts and draws
    exactly like the same lookups issued one object at a time."""
    db = _random_world(16)
    ids = db.object_ids
    bulk = QueryEngine(db, n_samples=80, seed=3, reuse_worlds=True)
    sequential = QueryEngine(db, n_samples=80, seed=3, reuse_worlds=True)
    bulk.worlds, sequential.worlds = WorldCache(capacity), WorldCache(capacity)
    for window in ((2, 5), (2, 8), (4, 6), (0, 6)):
        got = bulk.prefetch_worlds(ids, window)
        want = {"objects": 0, "hits": 0, "partial_hits": 0, "misses": 0}
        for oid in ids:
            for key, value in sequential.prefetch_worlds([oid], window).items():
                want[key] += value
        assert got == want, window
        assert len(bulk.worlds) == len(sequential.worlds) <= capacity
        for oid in ids:
            a, b = bulk.worlds.peek((oid, 80)), sequential.worlds.peek((oid, 80))
            assert (a is None) == (b is None), (window, oid)
            if a is not None:
                assert (a.t_first, a.t_last) == (b.t_first, b.t_last)
                assert np.array_equal(a.states, b.states)
    assert bulk.worlds.misses.value > len(ids)  # evicted objects were redrawn


def test_direct_rounds_stay_fresh():
    """Repeated direct calls on a default engine draw fresh worlds per
    round — each round the oracle's."""
    db = _random_world(8)
    q = Query.from_point([3.0, 3.0])
    ids, times = db.object_ids, np.arange(2, 9)
    engine = QueryEngine(db, n_samples=100, seed=17)
    first = engine.distance_tensor(ids, q, times)
    assert np.array_equal(first, loop_distance_tensor(engine, ids, q, times))
    second = engine.distance_tensor(ids, q, times)
    assert np.array_equal(second, loop_distance_tensor(engine, ids, q, times))
    assert not np.array_equal(first, second)
    assert engine.sampler_calls == 2 * len(ids)


@pytest.mark.parametrize("backend", BACKENDS)
def test_duplicate_object_ids_are_drawn_once(backend):
    """A repeated id is legal on the public refinement entry points: it is
    drawn once and answers each of its columns."""
    db = _random_world(14, n_objects=3)
    ids = db.object_ids
    doubled = ids + ids[:1]
    q = Query.from_point([5.0, 5.0])
    times = np.arange(2, 8)
    engine = QueryEngine(db, n_samples=100, seed=17, backend=backend, reuse_worlds=True)
    assert engine.prefetch_worlds(doubled, (2, 4)) == {
        "objects": len(ids), "hits": 0, "partial_hits": 0, "misses": len(ids),
    }
    dist = engine.distance_tensor(doubled, q, times)
    assert np.array_equal(dist, loop_distance_tensor(engine, doubled, q, times))
    assert np.array_equal(dist[:, 0], dist[:, -1])
    reverse, object_dist = engine.reverse_distance_tensors(doubled, q, times)
    assert np.array_equal(reverse, dist)
    assert np.array_equal(object_dist, loop_object_distances(engine, doubled, times))
    assert np.array_equal(object_dist[:, 0, -1], np.zeros_like(object_dist[:, 0, -1]))
    assert engine.sampler_calls == len(ids)  # objects, not mentions
    direct = QueryEngine(db, n_samples=100, seed=17, backend=backend)
    dist = direct.distance_tensor(doubled, q, times)
    assert np.array_equal(dist, loop_distance_tensor(direct, doubled, q, times))
    assert direct.sampler_calls == len(ids)


def test_mutation_evicts_the_arena_tables_it_invalidates():
    db = _random_world(10, n_objects=6)
    q = Query.from_point([5.0, 5.0])
    engine = QueryEngine(db, n_samples=100, seed=17, use_pruning=False)
    with checking_distances(engine) as checked:
        engine.forall_nn(q, range(2, 8))
        db.add_object("late", [(0, 0), (6, 0)])
        first = db.object_ids[0]
        db.add_observation(first, 13, int(db.get(first).ground_truth.states[-1]))
        result = engine.forall_nn(q, range(2, 8))
    assert "late" in result.influencers and len(checked) == 2


def test_refine_cache_off_answers_like_refine_cache_on():
    """``refine_cache_size=0`` (what shard workers run) recomputes every
    tensor; the default patches dirty columns of cached ones."""
    payloads, hits = [], []
    for size in (64, 0):
        db = _random_world(13, n_objects=8)
        engine = QueryEngine(db, n_samples=100, seed=29, refine_cache_size=size)
        monitor = ContinuousMonitor(engine)
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4, 5), "forall", 0.05), name="f")
        monitor.subscribe(QueryRequest(q, (3, 4, 5, 6), "pcnn", 0.2), name="p")
        monitor.subscribe(QueryRequest(q, (2, 3, 4), "reverse_nn"), name="r")
        history = []
        for oid, t in ((None, None), ("o0", 6), ("o1", 2), ("o2", 6), ("o0", 2)):
            if oid is not None:
                db.add_observation(oid, t, int(db.get(oid).ground_truth.states[t]))
            report = monitor.tick()
            history.append([_result_payload(n.result) for n in report.notifications])
        payloads.append(history)
        hits.append(engine.estimate_cache_hits.value)
    assert payloads[0] == payloads[1]
    assert hits[0] > 0 and hits[1] == 0


# ----------------------------------------------------------------------
# the non-default branches of the draw and of the distance kernel
# ----------------------------------------------------------------------
#: A row width past 64 — wider than any benchmark or experiment chain.
WIDE_ROWS = 64


def _max_row_width(obj):
    return max(obj.compiled.layer(t).width for t in range(obj.t_first, obj.t_last))


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_rows_draw_inside_the_sweep(backend):
    """Rows of more than ``WIDE_ROWS`` successors draw the row walk's pick
    inside the fused sweep, like every other row."""
    db, _ = make_random_world(
        seed=13, n_states=WIDE_ROWS + 16, n_objects=3, span=8, obs_every=4,
        density=1.0,
    )
    assert _max_row_width(next(iter(db))) > WIDE_ROWS
    q = Query.from_point([5.0, 5.0])
    engine = QueryEngine(db, n_samples=200, seed=17, backend=backend, use_pruning=False)
    with checking_distances(engine) as checked:
        engine.forall_nn(q, range(1, 8))
    assert checked


@pytest.mark.parametrize("backend", BACKENDS)
def test_narrow_and_wide_objects_share_one_sweep(backend):
    """A sparse-chain world plus one dense-chain hub, fused into the same
    step tables of one timestep sweep."""
    db, rng = make_random_world(
        seed=15, n_states=WIDE_ROWS + 16, n_objects=3, span=8,
        obs_every=4, density=0.1,
    )
    n_states = db.space.n_states
    dense = rng.uniform(0.1, 1.0, size=(n_states, n_states))
    dense /= dense.sum(axis=1, keepdims=True)
    hub_chain = MarkovChain(sparse.csr_matrix(dense))
    walk = [0]
    for _ in range(8):
        nxt, probs = hub_chain.successors(walk[-1], 0)
        walk.append(int(rng.choice(nxt, p=probs)))
    db.add_object("hub", [(0, walk[0]), (4, walk[4]), (8, walk[8])], chain=hub_chain)
    assert _max_row_width(db.get("hub")) > WIDE_ROWS
    q = Query.from_point([5.0, 5.0])
    engine = QueryEngine(db, n_samples=150, seed=17, backend=backend, use_pruning=False)
    with checking_distances(engine) as checked:
        engine.forall_nn(q, range(1, 8))
        engine.evaluate_many([QueryRequest(q, tuple(range(t, t + 4))) for t in (0, 2, 4)])
    assert len(checked) == 4


def test_huge_state_space_takes_the_gather_and_einsum_branch():
    """A state space large enough that tabulating per-state distances
    would dwarf the draw gathers coordinates for the sampled states only."""
    n_states = 600_000  # times.size * n_states >> 1e6 and >> 4 * packed
    rng = np.random.default_rng(0)
    space = StateSpace(rng.uniform(0, 100, size=(n_states, 2)))
    # Identity chain keeps adaptation trivial at this scale.
    db = TrajectoryDatabase(space, MarkovChain(sparse.identity(n_states, format="csr")))
    db.add_object("a", [(0, 7), (4, 7)])
    db.add_object("b", [(0, 91), (4, 91)])
    q = Query.from_point([50.0, 50.0])
    times = np.arange(0, 5)
    engine = QueryEngine(db, n_samples=40, seed=17, use_pruning=False)
    dist = engine.distance_tensor(["a", "b"], q, times)
    assert np.array_equal(dist, loop_distance_tensor(engine, ["a", "b"], q, times))


def test_staggered_ids_cover_the_request_shapes():
    """The shapes really are what the matrix claims to cover."""
    db = staggered_db()
    alive = {
        name: db.alive_matrix(list(dict.fromkeys(ids)), np.asarray(times))
        for name, (ids, times) in REQUEST_SHAPES.items()
    }
    assert alive["full_grid"].all()
    assert not alive["partly_alive"].all() and alive["partly_alive"].any(axis=0).all()
    assert not alive["all_dead_tic"].any(axis=0)[-1] and alive["all_dead_tic"].any()
    assert not alive["nobody_alive"].any()
    assert len(REQUEST_SHAPES["duplicate_id"][0]) > len(set(REQUEST_SHAPES["duplicate_id"][0]))
    assert sorted(db.object_ids) == sorted(STAGGERED_IDS)
