"""Micro-benchmarks of the library's hot paths.

Not a paper figure — these isolate the computational kernels behind the
figure experiments so performance regressions are attributable:
Algorithm 2 adaptation, posterior sampling, world statistics and UST
pruning.  Where a kernel is timed against what it replaced, the baseline
is the oracle of ``tests/oracles/`` — the same function the byte-identity
tests call — never a second mode of the engine.
"""

import os
from time import perf_counter

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.data.synthetic import SyntheticWorkloadConfig, generate_workload
from repro.markov import native
from repro.markov.adaptation import adapt_many, adapt_model, compiled_views
from repro.markov.chain import MarkovChain
from repro.markov.compiled import compile_models
from repro.spatial.geometry import Rect
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    ObservationStream,
    RemoveObject,
)
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.diamonds import Diamond
from repro.trajectory.nn import forall_knn_prob
from repro.trajectory.trajectory import Trajectory, adapt_objects
from tests.oracles import (
    RStarTree,
    loop_distance_tensor,
    partition_indicator,
    prune_reference,
    reference_adapt,
    reference_mine,
    reference_sample_paths,
    reference_segment,
    reference_stretch_tables,
    same_pruning,
    same_tables,
    segment_tree,
    world_major_distances,
)


@pytest.fixture(scope="module")
def workload():
    config = SyntheticWorkloadConfig(
        n_states=2000, n_objects=40, lifetime=40, horizon=100, obs_interval=8
    )
    return generate_workload(config, np.random.default_rng(0))


@pytest.fixture(scope="module")
def wide_model():
    """One object in the paper's sparse-observation regime (Fig. 12 varies
    the interval up to 40): 100 timesteps, wide diamonds — the setting where
    the per-state Python loop of the reference sampler is hottest."""
    config = SyntheticWorkloadConfig(
        n_states=30_000,
        branching=16.0,
        n_objects=2,
        lifetime=100,
        horizon=100,
        obs_interval=50,
    )
    wl = generate_workload(config, np.random.default_rng(0))
    model = next(iter(wl.db)).adapted
    _ = model.compiled  # compile once up front; the bench isolates sampling
    return model


def test_bench_adaptation(benchmark, workload):
    """Algorithm 2 on one object (forward + backward sweep)."""
    obj = next(iter(workload.db))
    chain, obs = obj.chain, obj.observations.as_pairs()
    benchmark(lambda: adapt_model(chain, obs))


def test_bench_posterior_sampling(benchmark, workload):
    """1000 posterior trajectories over a full lifetime."""
    obj = next(iter(workload.db))
    model = obj.adapted
    rng = np.random.default_rng(1)
    benchmark(lambda: model.sample_paths(rng, 1000))


def test_bench_sample_paths_compiled(benchmark, wide_model):
    """Compiled sampler: 10k posterior paths over 100 timesteps.

    The acceptance target of the compiled-sampler refactor is ≥5× over
    ``test_bench_sample_paths_reference`` on this workload.
    """
    rng = np.random.default_rng(1)
    benchmark(lambda: wide_model.sample_paths(rng, 10_000))


def test_bench_sample_paths_reference(benchmark, wide_model):
    """The row-dict walk oracle on the identical workload (same RNG stream)."""
    rng = np.random.default_rng(1)
    benchmark(lambda: reference_sample_paths(wide_model, rng, 10_000))


def test_bench_evaluate_many_sliding_window(benchmark, workload):
    """20 sliding P∀NN windows via evaluate_many: worlds drawn once per epoch."""
    engine = QueryEngine(workload.db, n_samples=500, seed=8)
    _ = engine.ust_tree
    for obj in workload.db:
        _ = obj.adapted
    q = Query.from_state(workload.db.space, workload.sample_query_state())
    requests = [QueryRequest(q, tuple(range(t, t + 8))) for t in range(10, 30)]
    benchmark(lambda: engine.evaluate_many(requests))


@pytest.fixture(scope="module")
def long_lifetime_workload():
    """Long-lived objects (80-tic lifetimes) probed by narrow windows — the
    sliding-window monitoring regime where window-restricted sampling pays:
    the batch union below covers 20 of each object's 80 tics (25%)."""
    config = SyntheticWorkloadConfig(
        n_states=2000, n_objects=30, lifetime=80, horizon=100, obs_interval=8
    )
    return generate_workload(config, np.random.default_rng(1))


def _narrow_window_requests(workload):
    q = Query.from_state(workload.db.space, workload.sample_query_state())
    # 7 sliding 8-tic windows; union [30, 49] = 20 tics ≤ 25% of lifetime.
    return [QueryRequest(q, tuple(range(t, t + 8))) for t in range(30, 43, 2)]


def test_bench_batch_narrow_window(benchmark, long_lifetime_workload):
    """A batch of narrow windows: each influence object is sampled only
    over the 20-tic batch union, not its 80-tic span."""
    workload = long_lifetime_workload
    engine = QueryEngine(workload.db, n_samples=1000, seed=8)
    _ = engine.ust_tree
    for obj in workload.db:
        _ = obj.adapted
    requests = _narrow_window_requests(workload)
    benchmark(lambda: engine.evaluate_many(requests))


def _refinement_kernel(workload):
    """Isolate the refinement step: draw every object's worlds for a 20-tic
    union window (fresh epoch per round, so each round really samples).
    Counting/pruning are excluded."""
    engine = QueryEngine(workload.db, n_samples=1000, seed=8, refine_cache_size=0)
    for obj in workload.db:
        _ = obj.adapted.compiled  # pre-compile; the kernel times sampling
    q = Query.from_state(workload.db.space, workload.sample_query_state())
    ids = [o.object_id for o in workload.db]
    times = np.arange(30, 50)

    def run():
        with engine.held_batch():  # draws through the world cache
            engine.new_draw_epoch()
            engine.distance_tensor(ids, q, times)

    return run


def test_bench_refine_narrow_window(benchmark, long_lifetime_workload):
    """Refinement cost: sample 30 objects over the 20-tic union of windows
    covering ≤25% of their lifetimes."""
    benchmark(_refinement_kernel(long_lifetime_workload))


@pytest.fixture(scope="module")
def tracking_workload():
    """A query tracking one object's certain ground-truth trajectory — the
    regime where a non-trivial candidate set exists and the Lemma 2 bounds
    have something to decide (an untracked random query point usually has
    an empty C∀(q): every object's P∀NN is exactly zero)."""
    config = SyntheticWorkloadConfig(
        n_states=500, n_objects=6, lifetime=40, horizon=50, obs_interval=6
    )
    wl = generate_workload(config, np.random.default_rng(2))
    for obj in wl.db:
        _ = obj.adapted.compiled  # pre-adapt; the kernels time query cost
    return wl


def _tracking_request(workload, tau, estimator):
    anchor = next(iter(workload.db))
    q = Query.from_trajectory(anchor.ground_truth, workload.db.space)
    return QueryRequest(
        q, tuple(range(18, 22)), "forall", tau, estimator=estimator
    )


def _estimator_kernel(workload, tau, estimator):
    """One P∀NN evaluation per round on a fresh epoch (so the sampled path
    really redraws worlds each time; the hybrid path pays the PTIME bound
    computations instead and samples only undecided candidates)."""
    engine = QueryEngine(workload.db, n_samples=2000, seed=9)
    _ = engine.ust_tree
    request = _tracking_request(workload, tau, estimator)
    return engine, (lambda: engine.evaluate(request))


def test_bench_evaluate_sampled_high_tau(benchmark, tracking_workload):
    """Pure Monte-Carlo refinement at τ=0.9: every influence object drawn."""
    engine, run = _estimator_kernel(tracking_workload, 0.9, "sampled")
    result = benchmark(run)
    assert result.report.sampled_objects == result.report.n_influencers > 0


def test_bench_evaluate_hybrid_high_tau(benchmark, tracking_workload):
    """Hybrid at τ=0.9: upper bounds reject candidates without sampling.

    The acceptance target of the pipeline redesign: at high τ the hybrid
    estimator samples measurably fewer objects than ``sampled`` (here it
    samples none — every candidate is decided by bounds alone)."""
    engine, run = _estimator_kernel(tracking_workload, 0.9, "hybrid")
    result = benchmark(run)
    assert result.report.sampled_objects < result.report.n_influencers
    assert result.report.bounds_decided + len(result.report.undecided) == (
        result.report.n_candidates
    )


def test_bench_evaluate_sampled_low_tau(benchmark, tracking_workload):
    """Pure Monte-Carlo refinement at τ=0.2 (the bounds-friendly low end)."""
    engine, run = _estimator_kernel(tracking_workload, 0.2, "sampled")
    benchmark(run)


def test_bench_evaluate_hybrid_low_tau(benchmark, tracking_workload):
    """Hybrid at τ=0.2: lower bounds accept without sampling.

    Hybrid refinement is all-or-nothing — one undecided candidate forces a
    world draw over *all* influence objects — so assert the invariant
    rather than a strict reduction (which only holds when the bounds
    decide every candidate, as they do at the decisive τ=0.9 above)."""
    engine, run = _estimator_kernel(tracking_workload, 0.2, "hybrid")
    result = benchmark(run)
    assert result.report.sampled_objects in (0, result.report.n_influencers)
    if not result.report.undecided:
        assert result.report.sampled_objects == 0


def test_bench_explain(benchmark, tracking_workload):
    """Stage 1-2 observability: plan + filter without executing."""
    engine = QueryEngine(tracking_workload.db, n_samples=2000, seed=9)
    _ = engine.ust_tree
    request = _tracking_request(tracking_workload, 0.5, "hybrid")
    benchmark(lambda: engine.explain(request))


def _walk_database(n_objects, n_states=200, span=12, obs_every=6, seed=0):
    """Many short-lived objects from plain chain walks.

    The routing-based synthetic generator pays a shortest-path search per
    object; scaling the *object* axis to 1000 candidates only needs valid
    observation sequences, which a direct walk of the chain provides."""
    rng = np.random.default_rng(seed)
    mat = rng.uniform(size=(n_states, n_states))
    mask = rng.uniform(size=(n_states, n_states)) < (8.0 / n_states)
    np.fill_diagonal(mask, True)
    mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    space = StateSpace(rng.uniform(0, 100, size=(n_states, 2)))
    db = TrajectoryDatabase(space, chain)
    for i in range(n_objects):
        walk = [int(rng.integers(n_states))]
        for _ in range(span):
            nxt, probs = chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        truth = Trajectory(0, np.asarray(walk))
        db.add_object(f"w{i}", truth.observe_every(obs_every), ground_truth=truth)
    return db


@pytest.fixture(scope="module")
def candidate_scale_db():
    """1000 pre-adapted objects sharing one span — the Fig. 8 / Fig. 13
    regime where refinement cost is dominated by the number of candidate
    objects per query rather than by per-object sample volume."""
    db = _walk_database(1000, span=24, obs_every=5)
    for obj in db:
        _ = obj.compiled  # pre-compile; the kernels isolate refinement
    return db


def _candidate_kernel(db, n_candidates, backend="compiled"):
    """Refinement over ``n_candidates`` objects on a fresh epoch per round
    (each round really draws worlds; filter/counting excluded)."""
    engine = QueryEngine(db, n_samples=128, seed=12, refine_cache_size=0, backend=backend)
    ids = [f"w{i}" for i in range(n_candidates)]
    q = Query.from_point([50.0, 50.0])
    times = np.arange(2, 22)

    def run():
        with engine.held_batch():  # draws through the world cache
            engine.new_draw_epoch()
            return engine.distance_tensor(ids, q, times)

    return run


def _candidate_loop_kernel(db, n_candidates):
    """The same refinement by the object-major oracle: one compiled sampler
    call and one distance broadcast per candidate
    (``tests.oracles.loop_distance_tensor``, timed with the compiled
    per-object sampler in place of the row-dict walk so the ratio measures
    the loop, not the walk)."""
    engine = QueryEngine(db, n_samples=128, seed=12)
    ids = [f"w{i}" for i in range(n_candidates)]
    q = Query.from_point([50.0, 50.0])
    times = np.arange(2, 22)

    def compiled(model, rng, n, t_lo, t_hi):
        return model.sample_paths(rng, n, t_lo, t_hi)

    return lambda: loop_distance_tensor(engine, ids, q, times, sample=compiled)


@pytest.mark.parametrize("n_candidates", [10, 100, 1000])
def test_bench_refine_fused(benchmark, candidate_scale_db, n_candidates):
    """Fused arena refinement: one columnar pass for all candidates.

    The acceptance target of the fused-arena refactor is ≥3× over
    ``test_bench_refine_loop`` at 100+ candidates."""
    benchmark(_candidate_kernel(candidate_scale_db, n_candidates))


@pytest.mark.parametrize("n_candidates", [10, 100, 1000])
def test_bench_refine_loop(benchmark, candidate_scale_db, n_candidates):
    """Object-major oracle: one sampler call + distance broadcast per
    candidate."""
    benchmark(_candidate_loop_kernel(candidate_scale_db, n_candidates))


def test_fused_speedup_targets(candidate_scale_db, bench_record):
    """Self-timed fused-vs-loop comparison, persisted to BENCH_kernels.json.

    Times both paths itself (min of 3 rounds after a warm-up) so the
    speedup table lands in the JSON even under ``--benchmark-disable``
    (the CI smoke mode), and asserts the arena's floor over the oracle
    loop: ≥2.5× at 100 and 1000 candidates."""

    rounds = 5
    table = {}
    for n_candidates in (10, 100, 1000):
        fused_run = _candidate_kernel(candidate_scale_db, n_candidates)
        loop_run = _candidate_loop_kernel(candidate_scale_db, n_candidates)
        fused_run()  # warm-up: adaptation, arena packing, table builds
        loop_run()
        fused_s, loop_s = [], []
        for _ in range(rounds):  # interleave to even out machine drift
            t0 = perf_counter()
            fused_run()
            fused_s.append(perf_counter() - t0)
            t0 = perf_counter()
            loop_run()
            loop_s.append(perf_counter() - t0)
        table[str(n_candidates)] = {
            "fused_s": min(fused_s),
            "loop_s": min(loop_s),
            "speedup": min(loop_s) / min(fused_s),
        }
    bench_record(
        "fused_speedup",
        {"n_samples": 128, "n_times": 20, "rounds": rounds, "candidates": table},
    )
    # Floor: ≥2.5× at 100+ candidates.  The baseline is the cache-less
    # oracle loop, ≈ 15 % leaner than the engine arm it replaced (which paid
    # a world-cache lookup per object and read 3.2–3.7×): three runs here
    # measured 2.9–3.5×.  Shared CI runners are noisy enough to eat most of
    # that margin, so CI enforces a regression floor instead while the
    # recorded JSON artifact carries the actual ratios; override with
    # FUSED_SPEEDUP_TARGET.
    target = float(
        os.environ.get("FUSED_SPEEDUP_TARGET", "1.5" if os.environ.get("CI") else "2.5")
    )
    assert table["100"]["speedup"] >= target, table
    assert table["1000"]["speedup"] >= target, table


@pytest.mark.parametrize("n_candidates", [10, 100, 1000])
def test_bench_refine_native(benchmark, candidate_scale_db, n_candidates):
    """Native (C) tier refinement: the fused arena with the compiled
    sweep/seeder/gather kernels (``backend="native"``)."""
    if not native.available():
        pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
    benchmark(_candidate_kernel(candidate_scale_db, n_candidates, backend="native"))


def test_native_speedup_targets(candidate_scale_db, bench_record):
    """Self-timed native-vs-loop comparison, persisted to BENCH_kernels.json.

    Same protocol as ``test_fused_speedup_targets`` (interleaved min of 5
    rounds after warm-up), comparing the native tier against the
    per-object loop baseline and recording the fused numpy arena
    alongside for the tier-over-arena ratio.  Acceptance target of the
    native-tier PR: ≥10× over the loop at 1000 candidates (measured
    ~11-12× on a quiet machine).  CI enforces a relaxed floor instead
    (shared runners are noisy and build the kernels cold); override with
    NATIVE_SPEEDUP_TARGET=10.0 for the full assertion.  Skips (and
    records nothing) when the tier cannot load.
    """
    if not native.available():
        pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")

    rounds = 5
    table = {}
    for n_candidates in (10, 100, 1000):
        native_run = _candidate_kernel(candidate_scale_db, n_candidates, backend="native")
        fused_run = _candidate_kernel(candidate_scale_db, n_candidates)
        loop_run = _candidate_loop_kernel(candidate_scale_db, n_candidates)
        native_run()  # warm-up: kernel build/dlopen, arena packing, tables
        fused_run()
        loop_run()
        native_s, fused_s, loop_s = [], [], []
        for _ in range(rounds):  # interleave to even out machine drift
            t0 = perf_counter()
            native_run()
            native_s.append(perf_counter() - t0)
            t0 = perf_counter()
            fused_run()
            fused_s.append(perf_counter() - t0)
            t0 = perf_counter()
            loop_run()
            loop_s.append(perf_counter() - t0)
        table[str(n_candidates)] = {
            "native_s": min(native_s),
            "fused_s": min(fused_s),
            "loop_s": min(loop_s),
            "speedup_vs_loop": min(loop_s) / min(native_s),
            "speedup_vs_fused": min(fused_s) / min(native_s),
        }
    bench_record(
        "native_speedup",
        {"n_samples": 128, "n_times": 20, "rounds": rounds, "candidates": table},
    )
    target = float(
        os.environ.get(
            "NATIVE_SPEEDUP_TARGET", "1.5" if os.environ.get("CI") else "10.0"
        )
    )
    assert table["1000"]["speedup_vs_loop"] >= target, table


def _stream_database(n_objects, seed=7):
    """Walk-generated objects observed up to t=16; the later ground-truth
    fixes (t=20, t=24 per object) are returned as a pending event feed."""
    n_states, span, observed_to, obs_every = 150, 24, 16, 4
    rng = np.random.default_rng(seed)
    mat = rng.uniform(size=(n_states, n_states))
    mask = rng.uniform(size=(n_states, n_states)) < (5.0 / n_states)
    np.fill_diagonal(mask, True)
    mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    space = StateSpace(rng.uniform(0, 100, size=(n_states, 2)))
    db = TrajectoryDatabase(space, chain)
    pending = {}
    for i in range(n_objects):
        walk = [int(rng.integers(n_states))]
        for _ in range(span):
            nxt, probs = chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        name = f"w{i}"
        db.add_object(
            name, [(t, walk[t]) for t in range(0, observed_to + 1, obs_every)]
        )
        pending[name] = [
            (t, walk[t]) for t in range(observed_to + obs_every, span + 1, obs_every)
        ]
    return db, pending


def _ingest_ready_setup(logged, n_objects, group=1, seed=7):
    """Ingest-to-ready kernel state: engine + tick-by-tick event feed.

    Each tick applies ``group`` observations and restores query-ready
    state (UST-tree synced, working-set worlds current over the standing
    window) — the exact cost an ingested point adds to a monitoring
    deployment.  Query evaluation on top (filtering, distances, counting)
    costs the same on both twins and is benchmarked separately.  The
    baseline twin (``logged=False``) keeps no mutation log
    (``MUTATION_LOG_LIMIT = 0``), so its engine can never tell which
    objects a tick touched and falls back to wholesale invalidation.
    """
    db, pending = _stream_database(n_objects, seed)
    if not logged:
        db.MUTATION_LOG_LIMIT = 0
    ticks = []
    for wave in range(2):
        for base in range(0, n_objects, group):
            ticks.append(
                [
                    AddObservation(f"w{i}", *pending[f"w{i}"][wave])
                    for i in range(base, min(base + group, n_objects))
                ]
            )
    engine = QueryEngine(db, n_samples=512, seed=3)
    stream = ObservationStream(db)
    window = (8, 16)
    ids = db.object_ids
    _ = engine.ust_tree  # warm-up: index build + diamonds
    engine.prefetch_worlds(ids, window)  # warm-up: adaptation + first draw

    def drain(batches):
        events = 0
        for batch in batches:
            stream.apply(batch)
            _ = engine.ust_tree  # index back in sync
            engine.prefetch_worlds(ids, window)  # worlds back in sync
            events += len(batch)
        return events

    return drain, ticks


def test_ingest_throughput_targets(bench_record):
    """Streaming ingest-to-ready: events/sec, selective invalidation vs
    the wholesale fallback of a log-less twin database.

    Self-timed (like the fused-speedup table) so the numbers land in
    ``BENCH_kernels.json`` even under ``--benchmark-disable``.  Both twins
    drain the same per-tick event feed over a 300-object database and
    restore query-ready state after every tick; the full-rebuild baseline
    pays a whole-tree rebuild, an arena reset and a full world redraw per
    tick, the logged twin re-indexes and redraws only the dirty
    objects (everything else is a bit-identical cache hit — guarded by
    ``tests/stream/test_lockstep.py``).  Acceptance target of the
    streaming subsystem: ≥5× events/sec at 100+ objects (CI enforces a
    relaxed floor on shared runners; run locally or with
    INGEST_SPEEDUP_TARGET=5.0 for the full assertion).
    """
    rounds = 2
    n_ticks = 40
    timings = {}
    for mode, logged in (("incremental", True), ("full_rebuild", False)):
        best, events = np.inf, 0
        for round_ in range(rounds):
            drain, ticks = _ingest_ready_setup(logged, n_objects=300, seed=7 + round_)
            t0 = perf_counter()
            events = drain(ticks[:n_ticks])
            best = min(best, perf_counter() - t0)
        timings[mode] = {
            "events": events,
            "seconds": best,
            "events_per_s": events / best,
        }
    speedup = (
        timings["incremental"]["events_per_s"]
        / timings["full_rebuild"]["events_per_s"]
    )
    bench_record(
        "ingest_throughput",
        {
            "n_objects": 300,
            "n_samples": 512,
            "window": [8, 16],
            "rounds": rounds,
            **timings,
            "speedup": speedup,
        },
    )
    target = float(
        os.environ.get(
            "INGEST_SPEEDUP_TARGET", "1.5" if os.environ.get("CI") else "5.0"
        )
    )
    assert speedup >= target, timings


def _monitor_database(n_objects, seed=11):
    """Fully-observed objects under spatially-local motion, plus a feed of
    *refinement* observations (interior fixes at t=18 / t=10 that tighten
    existing diamonds without extending lifespans).

    This is the monitoring steady state the tick-latency kernel measures:
    every subscription's window is fully populated, filter sets are
    stable, and each event dirties exactly one object's bounded time
    range.  Local motion (each state transitions to its spatial
    neighbors) keeps diamonds compact so the § 6 filter is selective —
    influence sets of tens, not hundreds, of objects."""
    n_states, span, obs_every, k_nn = 400, 24, 4, 6
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0, 100, size=(n_states, 2))
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(-1)
    nearest = np.argsort(d2, axis=1)[:, : k_nn + 1]  # self + k nearest
    mat = np.zeros((n_states, n_states))
    rows = np.repeat(np.arange(n_states), k_nn + 1)
    mat[rows, nearest.ravel()] = rng.uniform(0.5, 1.0, size=rows.size)
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    db = TrajectoryDatabase(StateSpace(coords), chain)
    refine = {}
    for i in range(n_objects):
        walk = [int(rng.integers(n_states))]
        for _ in range(span):
            nxt, probs = chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        name = f"w{i}"
        db.add_object(name, [(t, walk[t]) for t in range(0, span + 1, obs_every)])
        refine[name] = [(18, walk[18]), (10, walk[10])]
    return db, refine


def _monitor_tick_setup(
    *,
    n_objects=300,
    n_subs=50,
    warm=12,
    telemetry=False,
):
    """A warmed monitor over ``n_subs`` standing queries + its event feed.

    Half the subscriptions watch the late window (14–20), half the early
    one (6–12); the feed alternates t=18 / t=10 refinements so each tick
    dirties one object inside exactly one group's windows — the other
    group is provably clean from the mutation's affected time range
    alone."""
    db, refine = _monitor_database(n_objects)
    obs_kwargs = {}
    if telemetry:
        from repro.obs import MetricsRegistry, SlowQueryLog, Tracer

        obs_kwargs = {
            "tracer": Tracer(),
            "metrics": MetricsRegistry(),
            "slow_log": SlowQueryLog(threshold_seconds=0.1),
        }
    engine = QueryEngine(db, n_samples=256, seed=3, **obs_kwargs)
    monitor = ContinuousMonitor(engine)
    rng = np.random.default_rng(5)
    for s in range(n_subs):
        q = Query.from_point(rng.uniform(10, 90, size=2))
        times = tuple(range(14, 21)) if s % 2 == 0 else tuple(range(6, 13))
        kind = "forall" if s % 4 < 2 else "exists"
        monitor.subscribe(QueryRequest(q, times, kind, 0.05), name=f"s{s}")
    names = db.object_ids
    feed = [[AddObservation(n, *refine[n][i % 2])] for i, n in enumerate(names)]
    monitor.tick()  # initial evaluation of every subscription
    for batch in feed[:warm]:
        monitor.tick(batch)
    return monitor, feed[warm:]


#: ``test_monitor_tick_targets``' ceilings, seconds per 10 steady-state
#: ticks on the 2-vCPU box the ``monitor_tick`` record was taken on (there:
#: ≈ 0.12 whole tick, ≈ 0.035 estimate stage).  Absolute on purpose: a
#: ratio against a baseline engine, or "estimate is not the largest stage",
#: moves whenever *another* stage gets faster.
TICK_SECONDS_PER_10 = 0.30
ESTIMATE_SECONDS_PER_10 = 0.10


def test_monitor_tick_targets(bench_record):
    """Steady-state monitor tick, persisted to the JSON table: the batched
    filter (one table scan per window and tick) plus the dirty-column
    refinement cache.

    A warmed monitor drains a refinement feed (one observation per tick
    against 300 fully-observed objects, 50 standing subscriptions).  Two
    absolute ceilings per 10 ticks — whole-tick wall time and the summed
    estimate stage — at the ``cpu_count`` the record names (CI's shared
    runners get 4× slack; the record carries the real numbers).
    """
    measured = 10
    monitor, feed = _monitor_tick_setup()
    tick_s, stages, reuse = [], {}, {}
    for batch in feed[:measured]:
        t0 = perf_counter()
        report = monitor.tick(batch)
        tick_s.append(perf_counter() - t0)
        for stage, seconds in report.stage_seconds.items():
            stages[stage] = stages.get(stage, 0.0) + seconds
        for key, delta in report.reuse.items():
            reuse[key] = reuse.get(key, 0) + delta
    record = {
        "cpu_count": os.cpu_count(),
        "n_objects": 300,
        "n_subscriptions": 50,
        "n_samples": 256,
        "measured_ticks": measured,
        "mean_tick_s": float(np.mean(tick_s)),
        "min_tick_s": float(np.min(tick_s)),
        "stage_seconds": {k: float(v) for k, v in stages.items()},
        "columns_reused": reuse.get("estimate_columns_reused", 0),
        "columns_refreshed": reuse.get("estimate_columns_refreshed", 0),
    }
    bench_record("monitor_tick", record)
    slack = 4.0 if os.environ.get("CI") else 1.0
    assert sum(tick_s) <= TICK_SECONDS_PER_10 * slack, record
    assert stages["estimate"] <= ESTIMATE_SECONDS_PER_10 * slack, record
    # The cache engaged: most columns were served, not recomputed.
    assert record["columns_reused"] > record["columns_refreshed"], record


def test_monitor_tick_obs_overhead(bench_record):
    """Full telemetry (recording tracer + slow log) vs the NullTracer
    default on identically warmed steady-state monitors.  Both hold a
    registry — every engine counts into its own — so the "plain" twin
    differs from the instrumented one in the tracer and the slow log.

    The observability contract's cost half: ``stage_seconds`` moved to
    span-derived timing for *everyone*, so the un-instrumented path must
    not have slowed, and switching telemetry on must cost ≤5% of tick
    latency (``OBS_OVERHEAD_CEILING``, relaxed on shared CI runners).
    The two monitors tick *interleaved at tick granularity* (alternating
    which goes first), so clock drift, cache state and allocator phase
    hit both modes alike; the ratio is taken between per-mode *minimum*
    round times — min-of-rounds discards scheduler preemption spikes a
    mean would fold in.
    """
    rounds, per_round = 5, 6
    monitors = {}
    for mode, telemetry in (("plain", False), ("instrumented", True)):
        monitors[mode] = _monitor_tick_setup(telemetry=telemetry)
    round_s = {"plain": [], "instrumented": []}
    for r in range(rounds):
        totals = {"plain": 0.0, "instrumented": 0.0}
        for i in range(r * per_round, (r + 1) * per_round):
            order = ("plain", "instrumented") if i % 2 == 0 else (
                "instrumented", "plain"
            )
            for mode in order:
                monitor, feed = monitors[mode]
                t0 = perf_counter()
                monitor.tick(feed[i])
                totals[mode] += perf_counter() - t0
        for mode, total in totals.items():
            round_s[mode].append(total)
    plain_s = min(round_s["plain"])
    instrumented_s = min(round_s["instrumented"])
    overhead = instrumented_s / plain_s - 1.0
    ceiling = float(
        os.environ.get(
            "OBS_OVERHEAD_CEILING", "0.50" if os.environ.get("CI") else "0.05"
        )
    )
    # The instrumented run really recorded (one trace per tick, counters
    # fed) — the comparison must not be telemetry-off-by-accident.
    engine = monitors["instrumented"][0].engine
    assert len(engine.tracer.traces) > 0
    assert engine.metrics.value("monitor_ticks_total") >= rounds * per_round
    bench_record(
        "monitor_tick_obs_overhead",
        {
            "rounds": rounds,
            "ticks_per_round": per_round,
            "plain_min_round_s": plain_s,
            "instrumented_min_round_s": instrumented_s,
            "overhead_ratio": overhead,
            "ceiling": ceiling,
        },
    )
    assert overhead <= ceiling, (round_s, overhead, ceiling)


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def test_prune_many_targets(bench_record):
    """The batched § 6 filter kernel, persisted to the JSON table.

    ``USTTree.prune_many`` over the monitoring database at two sizes:
    µs per query for batches of 1 / 12 / 48 queries sharing a 7-tic
    window, the per-entry reference loop's µs per query next to it, and
    what one ``update_object`` costs the bound table — after an interior
    refinement fix and after a head append.  Every path is bit-identical
    — guarded by ``tests/spatial/test_prune_oracle.py``."""
    times = np.arange(14, 21)
    rng = np.random.default_rng(4)
    rounds = 5
    sizes = {}
    for n_objects in (120, 1000):
        db, refine = _monitor_database(n_objects)
        tree = USTTree(db)
        row = {}
        for n_queries in (1, 12, 48):
            coords = np.repeat(
                rng.uniform(10, 90, size=(n_queries, 1, 2)), times.size, axis=1
            )
            tree.prune_many(coords, times)  # warm-up
            best = min(_timed(lambda: tree.prune_many(coords, times)) for _ in range(rounds))
            row[f"q{n_queries}_us_per_query"] = best / n_queries * 1e6
        # An interior
        # fix keeps the lifespan and rewrites the object's rows in place; a
        # head append (every ``fleet_live`` event) lengthens it, and the
        # splice copies the whole table — O(objects x lifespan) per event.
        interior, append = [], []
        for i, name in enumerate(db.object_ids[:20]):
            last = db.get(name).observations.last
            for patches, fix in (
                (interior, refine[name][i % 2]),
                (append, (last.time + 4, last.state)),
            ):
                db.add_observation(name, *fix)
                db.diamonds_of(name)  # the diamonds are the database's cost, not the table's
                patches.append(_timed(lambda: tree.update_object(name)))
        row["update_object_us"] = min(interior) * 1e6
        row["update_object_append_us"] = min(append) * 1e6
        rtree = segment_tree(db)  # the paper's index, built once like the table
        single = prune_reference(db, coords[0], times, tree=rtree)
        batched = tree.prune_many(coords[:1], times)[0]
        assert batched.candidates == single.candidates
        assert batched.influencers == single.influencers
        reference = min(
            _timed(lambda: prune_reference(db, coords[0], times, tree=rtree))
            for _ in range(rounds)
        )
        row["reference_us_per_query"] = reference * 1e6
        sizes[str(n_objects)] = row
    speedup = sizes["120"]["reference_us_per_query"] / sizes["120"]["q12_us_per_query"]
    bench_record(
        "prune_many",
        {
            "cpu_count": os.cpu_count(),
            "n_times": len(times),
            "rounds": rounds,
            "n_objects": sizes,
            "speedup_q12_vs_reference_120": speedup,
        },
    )
    target = float(
        os.environ.get(
            "PRUNE_SPEEDUP_TARGET", "1.2" if os.environ.get("CI") else "3.0"
        )
    )
    assert speedup >= target, sizes


def _knn_chain(n_states=1000, k_nn=6, seed=5):
    """A k-nearest-neighbour geometric graph with self-loops over uniform
    random points — the shape of the end-to-end benchmark's chains: every
    state has exactly ``k_nn + 1`` successors."""
    rng = np.random.default_rng(seed)
    points = _knn_points(rng, n_states)
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    cols = np.argsort(d2, axis=1, kind="stable")[:, : k_nn + 1]  # self first
    weights = rng.uniform(0.5, 1.5, size=cols.shape)
    weights /= weights.sum(axis=1, keepdims=True)
    rows = np.repeat(np.arange(n_states), k_nn + 1)
    matrix = sparse.csr_matrix(
        (weights.ravel(), (rows, cols.ravel())), shape=(n_states, n_states)
    )
    return MarkovChain(matrix), rng


def _knn_points(rng, n_states):
    """The states' locations behind :func:`_knn_chain` (its first draw)."""
    return rng.uniform(0, 100, size=(n_states, 2))


def _walk_requests(chain, rng, n_objects, gap, n_segments=1):
    """``adapt_many`` requests: fixes every ``gap`` tics along random walks."""
    requests = []
    for _ in range(n_objects):
        state, walk = int(rng.integers(chain.n_states)), []
        for t in range(gap * n_segments + 1):
            walk.append(state)
            nxt, probs = chain.successors(state, t)
            state = int(rng.choice(nxt, p=probs))
        fixes = [(k * gap, walk[k * gap]) for k in range(n_segments + 1)]
        requests.append((chain, fixes, None, None))
    return requests


def test_adapt_many_targets(bench_record):
    """The batched forward–backward kernel, persisted to the JSON table.

    ``adapt_many`` on a 1000-state out-degree-7 chain: µs per segment for
    batches of 1 / 9 / 640 one-segment objects (a lone event, one
    ``fleet_live`` tick, a bulk load) at gaps 3 and 5, next to the
    per-object scipy sweep it replaced (``reference_adapt``, kept under
    ``tests/oracles/`` as the byte-identity oracle — ``tests/markov/
    test_adapt_many.py`` holds the two equal to the last bit), plus what a
    first build costs per 8-segment object, adaptation and compilation.
    Where the native tier loads, the C sweep (``adapt_many(...,
    native=True)``, which lays out the stretches' tables as it derives
    them) is timed beside the numpy sweep at every batch and for the
    first build.
    Acceptance targets: ≥5× per segment at a tick's batch of 9 over the
    reference, and ≥2× for the C sweep over the numpy sweep there and on
    the first build (CI enforces relaxed floors on shared runners; run
    locally or with ADAPT_SPEEDUP_TARGET=5.0 / NATIVE_ADAPT_SPEEDUP_TARGET=2.0
    for the full assertions).
    """
    chain, rng = _knn_chain()
    assert np.diff(chain.matrix.indptr).tolist() == [7] * chain.n_states
    on_native = native.available()
    rounds = 5
    gaps = {}
    for gap in (3, 5):
        row = {}
        for batch in (1, 9, 640):
            requests = _walk_requests(chain, rng, batch, gap)
            adapt_many(requests)  # warm-up (the chain's cached CSR arrays)
            best = min(_timed(lambda: adapt_many(requests)) for _ in range(rounds))
            row[f"b{batch}_us_per_segment"] = best / batch * 1e6
            if on_native:
                c_sweep = min(
                    _timed(lambda: adapt_many(requests, native=True)) for _ in range(rounds)
                )
                row[f"b{batch}_native_us_per_segment"] = c_sweep / batch * 1e6
            reference = min(
                _timed(lambda: [reference_adapt(c, obs) for c, obs, _, _ in requests])
                for _ in range(rounds if batch < 640 else 1)
            )
            row[f"b{batch}_reference_us_per_segment"] = reference / batch * 1e6
        gaps[str(gap)] = row

    def first_build(requests, c_sweep=False):
        for model in adapt_many(requests, native=c_sweep):
            model.compiled

    objects = _walk_requests(chain, rng, 20, gap=5, n_segments=8)
    together = min(_timed(lambda: first_build(objects)) for _ in range(rounds))
    alone = min(
        _timed(lambda: [first_build([request]) for request in objects])
        for _ in range(rounds)
    )
    first_build_ms = {
        "pooled_20_objects": together / len(objects) * 1e3,
        "one_object_at_a_time": alone / len(objects) * 1e3,
    }
    native_speedups = {}
    if on_native:
        together_c = min(_timed(lambda: first_build(objects, True)) for _ in range(rounds))
        first_build_ms["pooled_20_objects_native"] = together_c / len(objects) * 1e3
        native_speedups = {
            "speedup_native_b9_gap3_vs_numpy": gaps["3"]["b9_us_per_segment"]
            / gaps["3"]["b9_native_us_per_segment"],
            "speedup_native_first_build_vs_numpy": together / together_c,
        }
    speedup = gaps["3"]["b9_reference_us_per_segment"] / gaps["3"]["b9_us_per_segment"]
    bench_record(
        "adapt_many",
        {
            "cpu_count": os.cpu_count(),
            "n_states": chain.n_states,
            "out_degree": 7,
            "rounds": rounds,
            "gap": gaps,
            "first_build_ms_per_8_segment_object": first_build_ms,
            "speedup_b9_gap3_vs_reference": speedup,
            **native_speedups,
        },
    )
    target = float(
        os.environ.get("ADAPT_SPEEDUP_TARGET", "1.5" if os.environ.get("CI") else "5.0")
    )
    # The C sweep against the numpy sweep it stands in for.
    native_target = float(
        os.environ.get("NATIVE_ADAPT_SPEEDUP_TARGET", "1.2" if os.environ.get("CI") else "2.0")
    )
    assert speedup >= target, gaps
    for value in native_speedups.values():
        assert value >= native_target, (native_speedups, gaps)


def _fleet_tick(seed=6, n_objects=48, gap=3, n_appends=10, warm=False):
    """A ``fleet_live``-shaped database on the 1000-state kNN chain, and one
    tick's mutations of it: objects hold fixes every ``gap`` tics along
    random walks, staggered over 16 tics; the tick appends a fix to
    ``n_appends`` of them, adds one two-fix object and removes one.  With
    ``warm`` every object's model is adapted and compiled before the tick,
    so the tick's models carry their untouched stretches compiled.

    Returns ``(db, tree, dirty)``: the database after the tick, an index
    built before it and the ids the tick dirtied."""
    chain, _ = _knn_chain()
    space = StateSpace(_knn_points(np.random.default_rng(5), chain.n_states))
    rng = np.random.default_rng(seed)
    requests = _walk_requests(chain, rng, n_objects + 1, gap, n_segments=4)
    db = TrajectoryDatabase(space, chain)
    for i, (_, fixes, _, _) in enumerate(requests[:n_objects]):
        start = i % 16
        db.add_object(f"v{i:02d}", [(start + t, s) for t, s in fixes[:-1]])
    if warm:
        compiled_views([obj.adapted for obj in db])
    tree = USTTree(db)
    names = db.object_ids
    for name in names[:n_appends]:
        last = db.get(name).observations.last
        # A fix ``gap`` tics on along the object's own chain.
        walk = [last.state]
        for t in range(gap):
            nxt, probs = chain.successors(walk[-1], t)
            walk.append(int(rng.choice(nxt, p=probs)))
        db.add_observation(name, last.time + gap, walk[-1])
    added = requests[n_objects][1]
    db.add_object("new", [(16 + t, s) for t, s in added[:2]])
    db.remove_object(names[-1])
    return db, tree, [*names[:n_appends], "new", names[-1]]


def _oracle_diamonds(obj):
    """``obj``'s diamonds the way the per-object path derived them: the
    donor's unchanged ones carried, every other segment walked alone."""
    carried = {d.key: d for d in obj._diamond_donor}
    keys = [(a.time, a.state, b.time, b.state) for a, b in obj.observations.segments()]
    return [
        carried.get(key) or Diamond(key[0], key[2], reference_segment(obj.chain, *key), key)
        for key in keys
    ]


def test_write_path_targets(bench_record):
    """One ``fleet_live`` tick's index maintenance, persisted to the JSON
    table: ``USTTree.update_many`` over the tick's dirty ids — one labelled
    diamond walk per matrices group, one bound-table rewrite — against the
    per-object loop it replaced: each object's new segments walked alone
    (``tests.oracles.reference_segment``) and its rows written by one
    ``update_object``.  Both tables must prune alike, and like a fresh
    build.  Acceptance target: ≥3× (CI enforces a relaxed floor on shared
    runners; run locally or with WRITE_PATH_SPEEDUP_TARGET=3.0 for the full
    assertion)."""
    rounds = 7
    batch_s, loop_s, trees = [], [], {}
    for _ in range(rounds):  # interleave to even out machine drift
        db, tree, dirty = _fleet_tick()
        t0 = perf_counter()
        tree.update_many(dirty)
        batch_s.append(perf_counter() - t0)
        trees["batch"] = tree
        db, tree, dirty = _fleet_tick()
        t0 = perf_counter()
        for name in dirty:
            if name in db:
                obj = db.get(name)
                obj._diamonds = _oracle_diamonds(obj)
            tree.update_object(name)
        loop_s.append(perf_counter() - t0)
        trees["loop"] = tree
    fresh = USTTree(db)
    times = np.arange(16, 23)
    coords = np.repeat(
        np.random.default_rng(2).uniform(10, 90, size=(12, 1, 2)), times.size, axis=1
    )
    for got, want in zip(trees["batch"].prune_many(coords, times), fresh.prune_many(coords, times)):
        same_pruning(got, want)
    for got, want in zip(trees["loop"].prune_many(coords, times), fresh.prune_many(coords, times)):
        same_pruning(got, want)
    speedup = min(loop_s) / min(batch_s)
    bench_record(
        "write_path",
        {
            "cpu_count": os.cpu_count(),
            "n_objects": len(db),
            "n_dirty": len(dirty),
            "gap": 3,
            "n_states": db.space.n_states,
            "rounds": rounds,
            "update_many_ms": min(batch_s) * 1e3,
            "per_object_loop_ms": min(loop_s) * 1e3,
            "speedup_vs_per_object_loop": speedup,
        },
    )
    target = float(
        os.environ.get(
            "WRITE_PATH_SPEEDUP_TARGET", "1.2" if os.environ.get("CI") else "3.0"
        )
    )
    assert speedup >= target, {"batch_s": batch_s, "loop_s": loop_s}


def test_compile_batch_targets(bench_record):
    """One ``fleet_live`` tick's compile, persisted to the JSON table: the
    stretches the tick's adapted models have not compiled yet, in one
    ``compile_models`` pass, against the per-stretch loop it replaced
    (``tests.oracles.reference_stretch_tables``, each model then assembled
    the same way).  Both must give every model the same tables.
    Acceptance target: ≥2× (CI enforces a relaxed floor on shared runners;
    run locally or with COMPILE_BATCH_SPEEDUP_TARGET=2.0 for the full
    assertion)."""
    rounds, repeats = 5, 20
    batch_s, loop_s = [], []
    for _ in range(rounds):
        db, _, dirty = _fleet_tick(warm=True)
        objects = [db.get(name) for name in dirty if name in db]
        adapt_objects(objects)
        models = [obj.adapted for obj in objects]
        pending = [seg for model in models for seg in model.stretches() if seg.compiled is None]
        for sink, compile_tick in (
            (batch_s, lambda: compile_models(models)),
            (loop_s, lambda: [_compile_stretch_by_stretch(model) for model in models]),
        ):
            for _ in range(repeats):  # the same stretches, compiled afresh
                for seg in pending:
                    seg.compiled = None
                t0 = perf_counter()
                compiled = compile_tick()
                sink.append(perf_counter() - t0)
            if sink is batch_s:
                want = [view.tables for view in compiled]
        for model, got, tables in zip(models, compiled, want):
            same_tables(got.tables, tables, (model.t_first, model.t_last))
    speedup = min(loop_s) / min(batch_s)
    bench_record(
        "compile_batch",
        {
            "cpu_count": os.cpu_count(),
            "n_models": len(models),
            "n_stretches": len(pending),
            "n_tics": sum(len(seg.layers) for seg in pending),
            "n_rows": int(sum(layer[0].size for seg in pending for layer in seg.layers)),
            "rounds": rounds * repeats,
            "compile_models_ms": min(batch_s) * 1e3,
            "per_stretch_loop_ms": min(loop_s) * 1e3,
            "speedup_vs_per_stretch_loop": speedup,
        },
    )
    target = float(
        os.environ.get(
            "COMPILE_BATCH_SPEEDUP_TARGET", "1.2" if os.environ.get("CI") else "2.0"
        )
    )
    assert speedup >= target, {"batch_s": min(batch_s), "loop_s": min(loop_s)}


def _compile_stretch_by_stretch(model):
    """``model``'s compiled view the way one model was compiled before the
    batch pass: each pending stretch alone, then the model assembled."""
    for seg in model.stretches():
        if seg.compiled is None:
            seg.compiled = reference_stretch_tables(seg)
    return compile_models([model])[0]


def _serve_fleet(seed=7, n_ticks=40, rate=2, life=12, fix=3):
    """A ``fleet_live``-shaped script on the 1000-state kNN chain: ``rate``
    objects start every tic, enter with their second fix, report every
    ``fix`` tics and leave two tics after their last one.  Returns the
    database (the fleet on the road at tic 0) and one event batch per tic.
    """
    chain, _ = _knn_chain()
    space = StateSpace(_knn_points(np.random.default_rng(5), chain.n_states))
    rng = np.random.default_rng(seed)
    starts = [t for t in range(-life, n_ticks) for _ in range(rate)]
    walks = _walk_requests(chain, rng, len(starts), fix, n_segments=life // fix)
    db = TrajectoryDatabase(space, chain)
    script = [[] for _ in range(n_ticks)]
    for i, (start, (_, fixes, _, _)) in enumerate(zip(starts, walks)):
        name, fixes = f"v{i}", [(start + t, s) for t, s in fixes]
        enter = max(fixes[1][0], 0)
        known = [f for f in fixes if f[0] <= enter]
        events = [(f[0], AddObservation(name, *f)) for f in fixes if f[0] > enter]
        events.append((start + life + 2, RemoveObject(name)))
        if enter == 0:
            db.add_object(name, known)
        else:
            events.append((enter, AddObject(name, known)))
        for t, event in events:
            if 0 < t < n_ticks:
                script[t].append(event)
    for batch in script:  # an object enters before its later fixes
        batch.sort(key=lambda e: not isinstance(e, AddObject))
    return db, script


def test_serve_round_targets(bench_record):
    """The serve tier's rounds per tick, persisted to the JSON table: two
    process-transport shards on ``fleet_live``-shaped ticks, each tick one
    ``ApplyEvents`` round and one staging round (world items and block
    columns together, the invalidation flag riding both).  Records rounds
    per tick, the wall time of the rounds, a no-op round's latency — the
    price of one more round — and the coordinator's serial time (the
    tick's wall time outside rounds).  Asserts at most two rounds per
    tick: the count is the contract, the times are the machine's."""
    from repro.serve import ServeCoordinator
    from repro.serve.protocol import ApplyEvents
    from repro.stream import SlidingWindow

    warm, measured = 10, 25
    db, script = _serve_fleet(n_ticks=warm + measured)
    rng = np.random.default_rng(4)
    modes = (("forall", 0.05), ("exists", 0.05), ("pcnn", 0.5))
    with ServeCoordinator(db, n_shards=2, seed=9, mode="process", n_samples=128) as coord:
        for i in range(6):
            mode, tau = modes[i % 3]
            request = QueryRequest(Query.from_point(rng.uniform(20, 80, size=2)), (0,), mode, tau)
            coord.subscribe(request, name=f"s{i}", window=SlidingWindow(width=3, lag=4))
        for t in range(warm):
            coord.tick(script[t], now=t)
        engine = coord.engine
        send, rounds = engine._send, []

        def timed(commands, transport_call):
            t0 = perf_counter()
            try:
                return send(commands, transport_call)
            finally:
                rounds[-1].append(perf_counter() - t0)

        engine._send = timed
        tick_s = []
        for t in range(warm, warm + measured):
            rounds.append([])
            t0 = perf_counter()
            coord.tick(script[t], now=t)
            tick_s.append(perf_counter() - t0)
        engine._send = send
        noop = []
        for _ in range(20):
            t0 = perf_counter()
            engine._broadcast({shard: ApplyEvents(events=[]) for shard in range(2)})
            noop.append(perf_counter() - t0)
    per_tick = [len(r) for r in rounds]
    serial = [tick - sum(r) for tick, r in zip(tick_s, rounds)]
    record = {
        "cpu_count": os.cpu_count(),
        "n_shards": 2,
        "n_samples": 128,
        "n_subscriptions": 6,
        "measured_ticks": measured,
        "events_per_tick": float(np.mean([len(b) for b in script[warm:]])),
        "rounds_per_tick": float(np.mean(per_tick)),
        "max_rounds_per_tick": int(max(per_tick)),
        "median_tick_ms": float(np.median(tick_s) * 1e3),
        "median_round_ms_per_tick": float(np.median([sum(r) for r in rounds]) * 1e3),
        "median_coordinator_serial_ms": float(np.median(serial) * 1e3),
        "median_noop_round_ms": float(np.median(noop) * 1e3),
    }
    bench_record("serve_rounds", record)
    assert max(per_tick) <= 2, record
    assert min(per_tick) == 2, record  # every tick had events and due subscriptions


def test_knn_k_targets(bench_record):
    """kNN depth cost (k=1 vs k=3) on the 300-object monitoring database,
    persisted to the JSON table.

    The depth parameter only changes the membership indicator — one
    ``np.partition`` over the candidate axis instead of a ``min`` (what
    ``knn_indicator`` takes for k = 1, ``mode="raw"`` included) — while
    the dominant cost, drawing worlds, is depth-independent.  This kernel
    certifies that: k=3 evaluation must stay within a small factor of
    k=1 on identical draws (same seed, fresh epoch per round)."""
    db, _ = _monitor_database(300)
    q = Query.from_point([50.0, 50.0])
    times = tuple(range(14, 21))

    def depth_kernel(k):
        engine = QueryEngine(db, n_samples=256, seed=7, refine_cache_size=0)

        def run():
            with engine.held_batch():  # draws through the world cache
                engine.new_draw_epoch()
                return engine.evaluate(QueryRequest(q, times, "raw", k=k))

        return run

    rounds = 5
    k1_run, k3_run = depth_kernel(1), depth_kernel(3)
    k1_run()  # warm-up: adaptation, UST columns, arena tables
    k3_run()
    k1_s, k3_s = [], []
    for _ in range(rounds):  # interleave to even out machine drift
        t0 = perf_counter()
        k1_run()
        k1_s.append(perf_counter() - t0)
        t0 = perf_counter()
        k3_run()
        k3_s.append(perf_counter() - t0)
    overhead = min(k3_s) / min(k1_s)
    bench_record(
        "knn_k",
        {
            "n_objects": 300,
            "n_samples": 256,
            "n_times": len(times),
            "rounds": rounds,
            "k1_s": min(k1_s),
            "k3_s": min(k3_s),
            "overhead": overhead,
        },
    )
    # The partition-based indicator should cost little over the min-based
    # one; shared CI runners get a relaxed ceiling against noise.
    ceiling = float(
        os.environ.get(
            "KNN_K_OVERHEAD_CEILING", "2.5" if os.environ.get("CI") else "1.5"
        )
    )
    assert overhead <= ceiling, {"k1_s": k1_s, "k3_s": k3_s}


def test_refine_layout_targets(bench_record):
    """The refinement read path behind one ``adhoc_query`` op, stage by
    stage, persisted to the JSON table.

    Eight objects (six alive over the whole window, two over half of it) ×
    10 tics × 1000 worlds over 1000 states: µs for the distance block
    (worlds cached, so no sampling is timed), for the k = 1 indicator plus
    both ∀/∃ counts, and for PCNN mining at the mean case — the tensor's own
    indicator at the τ where it validates ≈ 39 sets per object, what an
    ``adhoc_query`` PCNN op averages — and at the worst case — one object
    the certain NN of all ten tics, 1023 qualifying sets at τ = 0.5.
    Beside each sits what it replaced, kept under ``tests/oracles/`` as
    the byte-identity oracles: the world-major tile/scatter kernel, the
    ``np.partition`` indicator and the ``forall_prob_over_times`` miner.
    Where the native tier loads, the C miner (``mine_objects(...,
    native=True)``) is timed at both cases beside the Python bitmap miner.
    Acceptance targets: ≥2× on distance +
    count, ≥3× on worst-case mining, ≥4× for the C miner over the bitmap
    miner (CI enforces relaxed floors on shared
    runners; run locally or set the ``REFINE_*_SPEEDUP_TARGET`` /
    ``NATIVE_MINING_SPEEDUP_TARGET`` variables for the full assertion).
    """
    from repro.core.apriori import mine_objects, mine_world_masks, world_masks
    from repro.trajectory.nn import knn_indicator

    chain, rng = _knn_chain()
    db = TrajectoryDatabase(
        StateSpace(rng.uniform(0, 100, size=(chain.n_states, 2))), chain
    )
    n = 1000
    times = np.arange(20, 30)
    # (first tic, 5-tic segments): alive over 20–29, over 25–29, over 20–24.
    for i, (start, segments) in enumerate([(0, 8)] * 6 + [(25, 4), (4, 4)]):
        fixes = _walk_requests(chain, rng, 1, gap=5, n_segments=segments)[0][1]
        db.add_object(f"o{i}", [(start + t, state) for t, state in fixes])
    ids = db.object_ids
    fix_tic, fix_state = db.get("o0").observations.as_pairs()[5]  # tic 25
    q = Query.from_point(db.space.coords[fix_state])
    # Inside one held batch the worlds stay cached, and with no refine
    # cache no call is answered from a stored block: each timed call
    # computes the distance block over the cached worlds.
    engine = QueryEngine(db, n_samples=n, seed=3, refine_cache_size=0)
    rounds = 7

    def best_us(fn):
        fn()
        return min(_timed(fn) for _ in range(rounds)) * 1e6

    with engine.held_batch():
        dist = engine.distance_tensor(ids, q, times)  # draws and caches the worlds
        alive = db.alive_matrix(ids, times)
        assert alive.sum(axis=1).tolist() == [10] * 6 + [5, 5]
        states = [
            np.ascontiguousarray(engine.worlds.peek((oid, n)).slice(times[row]))
            for oid, row in zip(ids, alive)
        ]
        q_coords = q.coords_at(times)
        world_major = world_major_distances(db.space, q_coords, times, alive, states, n)
        assert np.array_equal(dist, world_major)
        drawn = engine.sampler_calls
        distance_us = best_us(lambda: engine.distance_tensor(ids, q, times))
        timed = engine.distance_tensor(ids, q, times)
        assert engine.sampler_calls == drawn  # no world was drawn while timing
        assert np.array_equal(timed, world_major)

    def count(tensor, indicator):
        is_nn = indicator(tensor, 1)
        return is_nn.all(axis=2).mean(axis=0), is_nn.any(axis=2).mean(axis=0)

    def mine(is_nn, tau):
        masks = world_masks(is_nn.transpose(1, 2, 0))
        return [
            mine_world_masks(masks[c * times.size : (c + 1) * times.size], n, times, tau)
            for c in range(len(ids))
        ]

    def mine_reference(is_nn, tau):
        return [reference_mine(is_nn[:, c, :], times, tau) for c in range(len(ids))]

    def mine_native(is_nn, tau):
        return mine_objects(is_nn.transpose(1, 2, 0), times, tau, native=True)

    mean_case = knn_indicator(dist, 1)
    worst_case = np.zeros_like(mean_case)
    worst_case[:, 0, :] = True
    row = {
        "distance_us": distance_us,
        "distance_world_major_us": best_us(
            lambda: world_major_distances(db.space, q_coords, times, alive, states, n)
        ),
        "count_us": best_us(lambda: count(dist, knn_indicator)),
        "count_world_major_us": best_us(lambda: count(world_major, partition_indicator)),
    }
    for name, is_nn, tau in (("mean", mean_case, 0.03), ("worst", worst_case, 0.5)):
        world_major_is_nn = np.ascontiguousarray(is_nn)
        mined = mine(is_nn, tau)
        assert mined == mine_reference(world_major_is_nn, tau)
        row[f"mining_{name}_sets_evaluated"] = sum(s.sets_evaluated for _, s in mined)
        row[f"mining_{name}_us"] = best_us(lambda: mine(is_nn, tau))
        row[f"mining_{name}_reference_us"] = best_us(
            lambda: mine_reference(world_major_is_nn, tau)
        )
        if native.available():
            assert mine_native(is_nn, tau) == mined
            row[f"mining_{name}_native_us"] = best_us(lambda: mine_native(is_nn, tau))
    assert 30 * len(ids) <= row["mining_mean_sets_evaluated"] <= 50 * len(ids)
    assert row["mining_worst_sets_evaluated"] == 1023 + 7 * times.size
    speedup = (row["distance_world_major_us"] + row["count_world_major_us"]) / (
        row["distance_us"] + row["count_us"]
    )
    mining_speedup = row["mining_worst_reference_us"] / row["mining_worst_us"]
    native_speedups = {
        f"speedup_mining_{name}_native": row[f"mining_{name}_us"] / row[f"mining_{name}_native_us"]
        for name in ("mean", "worst")
        if f"mining_{name}_native_us" in row
    }
    bench_record(
        "refine_layout",
        {
            "cpu_count": os.cpu_count(),
            "n_objects": len(ids),
            "n_times": int(times.size),
            "n_samples": n,
            "n_states": chain.n_states,
            "rounds": rounds,
            **row,
            "speedup_distance_plus_count": speedup,
            "speedup_mining_worst": mining_speedup,
            **native_speedups,
        },
    )
    on_ci = bool(os.environ.get("CI"))
    target = float(os.environ.get("REFINE_LAYOUT_SPEEDUP_TARGET", "1.2" if on_ci else "2.0"))
    mining_target = float(
        os.environ.get("REFINE_MINING_SPEEDUP_TARGET", "1.5" if on_ci else "3.0")
    )
    # The C miner against the Python bitmap miner it stands in for.
    native_target = float(
        os.environ.get("NATIVE_MINING_SPEEDUP_TARGET", "1.5" if on_ci else "4.0")
    )
    assert speedup >= target, row
    assert mining_speedup >= mining_target, row
    for value in native_speedups.values():
        assert value >= native_target, row


def test_prune_native_targets(bench_record):
    """The § 6 filter's C scan against the numpy scan, persisted to the
    JSON table, at the two shapes the end-to-end workloads run it at:
    ``adhoc_query``'s (1 query × 10 tics × 80 objects) and
    ``monitor_steady``'s (12 queries × 7 tics × 120 objects) — µs per
    ``USTTree.prune_many`` pass.  Byte identity is
    ``tests/spatial/test_prune_oracle.py``'s; here the results are only
    checked equal.  Acceptance target: ≥2× at both shapes (CI enforces a
    relaxed floor on shared runners)."""
    if not native.available():
        pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
    rng = np.random.default_rng(9)
    rounds = 7
    shapes = {
        "adhoc_query": (80, 1, np.arange(8, 18)),
        "monitor_steady": (120, 12, np.arange(14, 21)),
    }
    rows = {}
    for name, (n_objects, n_queries, times) in shapes.items():
        db, _ = _monitor_database(n_objects)
        tree = USTTree(db)
        coords = np.repeat(rng.uniform(10, 90, size=(n_queries, 1, 2)), times.size, axis=1)
        row = {}
        for label, use_native in (("numpy", False), ("native", True)):
            tree.native = use_native
            results = tree.prune_many(coords, times)  # warm-up
            row[f"{label}_us"] = min(
                _timed(lambda: tree.prune_many(coords, times)) for _ in range(rounds)
            ) * 1e6
            row[f"{label}_influencers"] = sum(len(r.influencers) for r in results)
        assert row["numpy_influencers"] == row["native_influencers"]
        row["speedup"] = row["numpy_us"] / row["native_us"]
        rows[name] = {"n_objects": n_objects, "n_queries": n_queries,
                      "n_times": int(times.size), **row}
    bench_record("prune_native", {"cpu_count": os.cpu_count(), "rounds": rounds, **rows})
    target = float(
        os.environ.get("PRUNE_NATIVE_SPEEDUP_TARGET", "1.2" if os.environ.get("CI") else "2.0")
    )
    for row in rows.values():
        assert row["speedup"] >= target, rows


def test_bench_monitor_tick(benchmark):
    """End-to-end monitor tick (ingest + schedule + coalesced re-evaluate)
    the serving-loop latency kernel."""
    db, pending = _stream_database(150)
    engine = QueryEngine(db, n_samples=512, seed=3)
    monitor = ContinuousMonitor(engine)
    q = Query.from_point([50.0, 50.0])
    monitor.subscribe(QueryRequest(q, tuple(range(8, 14)), "forall", 0.05))
    monitor.subscribe(QueryRequest(q, tuple(range(10, 16)), "exists", 0.1))
    monitor.tick()
    feed = [
        [AddObservation(name, *pending[name][wave])]
        for wave in range(2)
        for name in db.object_ids
    ]
    it = iter(feed)
    # pedantic: the feed is finite (each observation ingests once), so pin
    # the rounds instead of letting the calibrator spin the iterator dry.
    benchmark.pedantic(lambda: monitor.tick(next(it)), rounds=30, iterations=1)


def test_bench_ingest_apply(benchmark):
    """Raw event application (no queries): validation + database mutation
    for an 80-event batch against 300 objects."""

    def setup():
        db, pending = _stream_database(300)
        flat = [
            AddObservation(name, *pending[name][0])
            for name in db.object_ids[:80]
        ]
        return (ObservationStream(db), flat), {}

    benchmark.pedantic(
        lambda stream, events: stream.apply(events),
        setup=setup,
        rounds=5,
    )


def test_bench_world_statistics(benchmark):
    """∀NN counting over a 1000-world tensor."""
    rng = np.random.default_rng(2)
    dist = rng.uniform(size=(1000, 20, 10))
    benchmark(lambda: forall_knn_prob(dist, 1))


def test_bench_rstar_insert(benchmark):
    """Insert 500 rects with R* splits and reinsertion."""
    rng = np.random.default_rng(3)
    lows = rng.uniform(0, 100, size=(500, 2))
    rects = [Rect(tuple(lo), tuple(lo + 2.0)) for lo in lows]

    def build():
        tree = RStarTree(max_entries=16)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        return tree

    benchmark(build)


def test_bench_rstar_bulk_load(benchmark):
    """STR bulk loading of 5000 rects."""
    rng = np.random.default_rng(4)
    lows = rng.uniform(0, 100, size=(5000, 3))
    items = [(Rect(tuple(lo), tuple(lo + 1.0)), i) for i, lo in enumerate(lows)]
    benchmark(lambda: RStarTree.bulk_load(items, max_entries=16))


def test_bench_ust_pruning(benchmark, workload):
    """§ 6 filter step: candidates and influencers for one query."""
    engine = QueryEngine(workload.db, n_samples=10, seed=5)
    tree = engine.ust_tree
    q = Query.from_state(workload.db.space, workload.sample_query_state())
    times = workload.sample_query_times(8)
    coords = q.coords_at(times)
    benchmark(lambda: tree.prune(coords, times))


def test_bench_full_forall_query(benchmark, workload):
    """End-to-end P∀NNQ (filter + sample + count) at 500 samples."""
    engine = QueryEngine(workload.db, n_samples=500, seed=6)
    _ = engine.ust_tree
    for obj in workload.db:
        _ = obj.adapted  # pre-adapt: the bench isolates query cost
    q = Query.from_state(workload.db.space, workload.sample_query_state())
    times = workload.sample_query_times(8)
    benchmark(lambda: engine.forall_nn(q, times))
