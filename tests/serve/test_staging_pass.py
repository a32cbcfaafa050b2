"""A tick's refinement staging is one pass, on one process and on shards.

``QueryEngine.stage`` plans and filters each due request once and makes
its one refine-cache claim; the columns the claims lack are filled in
one stacked local fill whose one world lookup also warms the tick's
other targets, or in one fan-out round per tick that carries column
jobs and world items together, each command also carrying the
coordinator's invalidation flag.  So a serving tick with events and due
sampling subscriptions makes exactly two rounds (``ApplyEvents``, then
the staging), a tick whose subscriptions are all clean only the first,
``build_plan`` / ``_fill_job`` / ``RefineCache.stale`` run once per due
request per tick, and no world is looked up by two calls of one tick —
while payloads and reuse counters stay those of one process.  The
``Stage`` is a value: one built and never evaluated changes nothing.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.evaluator as evaluator
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.core.refine import RefineCache
from repro.core.worlds import WorldCache
from repro.serve import ServeCoordinator
from repro.statespace.base import StateSpace
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    RemoveObject,
    SlidingWindow,
)
from repro.stream.monitor import _result_payload
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain
from tests.serve.conftest import (
    SEED,
    assert_reports_identical,
    feasible_extension,
    seam_script,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.serve

N_LINE = 6


def _count_rounds(coord):
    """``rounds`` gains the command types of every round the coordinator's
    engine sends (broadcast or one-shard request alike)."""
    engine, rounds = coord.engine, []
    send = engine._send

    def counted(commands, transport_call):
        rounds.append(sorted(type(c).__name__ for c in commands.values()))
        return send(commands, transport_call)

    engine._send = counted
    return rounds


def _influencer_event(db, coord):
    """An extension of an object every standard subscription refines."""
    influencers = set.intersection(
        *(set(s.last_influencers or ()) for s in coord.subscriptions)
    )
    return feasible_extension(db, sorted(influencers)[0])


class TestRoundsPerTick:
    def test_a_due_tick_is_apply_then_staging(self):
        db = twin_db()
        with ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=60) as coord:
            for name, request in standard_subscriptions():
                coord.subscribe(request, name=name)
            coord.tick([])
            rounds = _count_rounds(coord)
            report = coord.tick([_influencer_event(db, coord)])
            assert report.reevaluated  # due sampling subscriptions
            # Every shard gets its share of the events; the staging round
            # goes to the shards owning a world item or a column of a job.
            assert [set(r) for r in rounds] == [{"ApplyEvents"}, {"ComputeColumns"}]
            assert len(rounds[0]) == 2

    def test_a_clean_tick_is_apply_alone(self):
        db = twin_db()
        with ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=60) as coord:
            for name, request in standard_subscriptions():
                coord.subscribe(request, name=name)
            coord.tick([])
            rounds = _count_rounds(coord)
            # An object living after every subscription's window: dirty,
            # synced, and nobody's business.
            report = coord.tick([AddObject("late", [(20, 0), (22, 1)])])
            assert report.dirty == frozenset({"late"}) and not report.reevaluated
            assert rounds == [["ApplyEvents", "ApplyEvents"]]
            # Its sync's flag rides the next command instead.
            rounds.clear()
            coord.tick([_influencer_event(db, coord)])
            assert len(rounds) == 2


class _Counts:
    """``build_plan`` / ``_fill_job`` / ``RefineCache.stale`` calls and jobs
    handed to ``fill_blocks`` on one engine, per tick."""

    def __init__(self, engine, monkeypatch):
        self.plans = self.jobs = self.live = self.stale = 0
        build_plan, stale = evaluator.build_plan, RefineCache.stale

        def plan(*args, **kwargs):
            self.plans += 1
            return build_plan(*args, **kwargs)

        def stale_cut(cache, *args):
            self.stale += 1
            return stale(cache, *args)

        fill_job, fill_blocks = engine._fill_job, engine.fill_blocks

        def job(request, plan):
            self.jobs += 1
            return fill_job(request, plan)

        def fill(jobs, warm=()):
            self.live += len(jobs)
            return fill_blocks(jobs, warm)

        monkeypatch.setattr(evaluator, "build_plan", plan)
        monkeypatch.setattr(RefineCache, "stale", stale_cut)
        monkeypatch.setattr(engine, "_fill_job", job)
        monkeypatch.setattr(engine, "fill_blocks", fill)

    def take(self):
        counts = (self.plans, self.jobs, self.live, self.stale)
        self.plans = self.jobs = self.live = self.stale = 0
        return counts


@pytest.mark.parametrize("serve", [False, True], ids=["monitor", "coordinator"])
def test_each_due_request_is_planned_once_per_tick(serve, monkeypatch):
    """One ``build_plan``, ``_fill_job`` and refine-cache ``stale`` cut and
    at most one filled job per due request per tick, on the coordinator as
    on one process, the refresh tick included."""
    db = twin_db()
    if serve:
        coord = ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=60)
        monitor, engine = coord, coord.engine
    else:
        coord = None
        engine = QueryEngine(db, n_samples=60, seed=SEED)
        monitor = ContinuousMonitor(engine)
    try:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
        counts = _Counts(engine, monkeypatch)
        ids = sorted(db.object_ids)
        for t, events in enumerate([[], [feasible_extension(db, ids[0])], "refresh",
                                    [feasible_extension(db, ids[1])], []]):
            if events == "refresh":
                monitor.refresh()
                events = []
            due = len(monitor.tick(events).reevaluated)
            plans, jobs, live, stale = counts.take()
            assert plans == jobs == stale == due, (t, plans, jobs, stale, due)
            assert live <= due, (t, live, due)
    finally:
        if coord is not None:
            coord.close()


def test_one_local_fill_pass_per_tick(monkeypatch):
    """In process, a due tick's blocks are filled by one stacked pass."""
    db = twin_db()
    engine = QueryEngine(db, n_samples=60, seed=SEED)
    monitor = ContinuousMonitor(engine)
    for name, request in standard_subscriptions():
        monitor.subscribe(request, name=name)
    passes = []
    fill = engine.fill_blocks
    monkeypatch.setattr(
        engine, "fill_blocks", lambda jobs, warm=(): passes.append(len(jobs)) or fill(jobs, warm)
    )
    for events in ([], [feasible_extension(db, sorted(db.object_ids)[0])]):
        passes.clear()
        assert monitor.tick(events).reevaluated
        assert len(passes) == 1 and passes[0] >= 1


def test_each_world_is_looked_up_once_per_tick(monkeypatch):
    """Over ``seam_script`` with sampled subscriptions, no ``(key, t_lo,
    t_hi)`` world reaches two ``states_for_many`` calls of one tick — the
    warm targets join the fill's own lookup — on one process and on two
    shards, whose ticks make the same partial hits and misses."""
    calls = []
    states_for_many = WorldCache.states_for_many

    def recorded(cache, items, stamp, bulk_sampler, outcomes=None):
        kinds = [] if outcomes is None else outcomes
        found = states_for_many(cache, items, stamp, bulk_sampler, outcomes=kinds)
        calls.append((items, kinds))
        return found

    monkeypatch.setattr(WorldCache, "states_for_many", recorded)
    runs = []
    for serve in (False, True):
        db = twin_db()
        if serve:
            monitor = ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=60)
        else:
            monitor = ContinuousMonitor(QueryEngine(db, n_samples=60, seed=SEED))
        ticks = []
        try:
            for name, request in standard_subscriptions():
                monitor.subscribe(request, name=name)
            for t, events in enumerate(seam_script(db)):
                calls.clear()
                monitor.tick(events)
                seen = set()
                for items, _ in calls:
                    assert not seen & set(items), (serve, t, seen & set(items))
                    seen.update(items)
                kinds = [kind for _, outcomes in calls for kind in outcomes]
                ticks.append((kinds.count(1), kinds.count(2)))
        finally:
            if serve:
                monitor.close()
        runs.append(ticks)
    single, served = runs
    assert single == served
    assert sum(misses for _, misses in single) > 0


def _mixed_subscriptions():
    here, there, aside = (Query.from_point(p) for p in ([1.5, 0.5], [3.5, -0.5], [2.5, 1.0]))
    slide = SlidingWindow(width=3, lag=1)
    return [
        ("forall", QueryRequest(here, (0,), "forall", 0.05), slide),
        ("pcnn", QueryRequest(there, (0,), "pcnn", 0.2), SlidingWindow(width=2)),
        ("exists", QueryRequest(there, (3, 4, 5), "exists", 0.1), None),
        ("hybrid", QueryRequest(aside, (0,), "forall", 0.1, estimator="hybrid"), slide),
        ("exact", QueryRequest(here, (4,), "forall", 0.2, estimator="exact"), None),
    ]


def _fixes(rng, first, length):
    """A drift walk observed at every tic but two interior ones, alone
    between fixes — at most four consistent paths, so exact enumeration
    stays small."""
    states = [int(rng.integers(0, 3))]
    for _ in range(length - 1):
        states.append(min(states[-1] + int(rng.integers(0, 2)), N_LINE - 1))
    gaps = {1 + 2 * int(g) for g in rng.choice((length - 1) // 2, 2, replace=False)}
    return [(first + t, s) for t, s in enumerate(states) if t not in gaps]


def _zigzag(n):
    """States along a zigzag: a 2-D layout where the bounds leave some
    hybrid candidates to sampling."""
    return StateSpace(np.array([[i, 1.5 * (i % 2)] for i in range(n)], dtype=float))


class _LineFleet:
    """Twin databases on a drift chain and a seeded stream of events."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        fixes = [_fixes(self.rng, int(self.rng.integers(0, 4)), 6) for _ in range(4)]
        self.dbs = []
        for _ in range(2):
            db = TrajectoryDatabase(_zigzag(N_LINE), make_drift_chain(N_LINE))
            for i, obs in enumerate(fixes):
                db.add_object(f"o{i}", obs)
            self.dbs.append(db)
        self.added = 0

    def events(self, ops, now):
        db, rng, events = self.dbs[0], self.rng, []
        for op in ops:
            ids = sorted(db.object_ids)
            oid = ids[int(rng.integers(len(ids)))]
            if op == 0 and not any(getattr(e, "object_id", None) == oid for e in events):
                last = db.get(oid).observations.last
                state = min(last.state + int(rng.integers(0, 2)), N_LINE - 1)
                events.append(AddObservation(oid, last.time + 1, state))
            elif op == 1 and len(ids) > 2 and not events:
                events.append(RemoveObject(oid))
            elif op == 2 and not events:
                self.added += 1
                events.append(AddObject(f"n{self.added}", _fixes(rng, now - 2, 5)))
        return events


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ticks=st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=2, max_size=6),
    refine_cache_size=st.sampled_from([0, 1, 3, 64]),
)
def test_two_shards_stage_what_one_process_does(seed, ticks, refine_cache_size):
    """Sampled subscriptions beside ``hybrid`` and ``exact`` ones, whose
    requests are not staged: an inline 2-shard coordinator notifies the
    payloads of one process, with its reuse counters, tick by tick, at
    refine-cache capacities 0, 1 (every staged entry evicted before its
    evaluation), 3 and the default."""
    fleet = _LineFleet(seed)
    kwargs = {"n_samples": 32, "seed": SEED, "refine_cache_size": refine_cache_size}
    single = ContinuousMonitor(QueryEngine(fleet.dbs[0], **kwargs))
    with ServeCoordinator(fleet.dbs[1], n_shards=2, mode="inline", **kwargs) as served:
        for name, request, window in _mixed_subscriptions():
            single.subscribe(request, name=name, window=window)
            served.subscribe(request, name=name, window=window)
        for now, ops in enumerate(ticks, start=4):
            events = fleet.events(ops, now)
            # Payloads, reasons and ``reuse``, tick by tick.
            assert_reports_identical(
                single.tick(events, now=now), served.tick(events, now=now), (seed, now)
            )


def _report_fields(report):
    """Every ``EvaluationReport`` field but the stage timings."""
    fields = dataclasses.asdict(report)
    del fields["stage_seconds"]
    return fields


@pytest.mark.parametrize("refine_cache_size", [0, 1, 64])
def test_a_stage_never_evaluated_changes_nothing(refine_cache_size):
    """A ``Stage`` is a value: built over the held epoch — warming every
    object, its blocks in the refine cache — and dropped, it changes
    nothing a later batch returns or reports, beside a twin engine that
    never staged."""
    engines = [
        QueryEngine(twin_db(), n_samples=60, seed=SEED, refine_cache_size=refine_cache_size)
        for _ in range(2)
    ]
    requests = [request for _, request in standard_subscriptions()]
    for engine in engines:
        engine.evaluate_many(requests)
    staged = engines[0]
    staged.stage(requests[::-1], refresh_worlds=False, window=(0, 9),
                 warm=sorted(staged.db.object_ids))
    for refresh_worlds in (True, False):
        got, want = (
            engine.evaluate_many(requests, refresh_worlds=refresh_worlds) for engine in engines
        )
        assert [_result_payload(r) for r in got] == [_result_payload(r) for r in want]
        assert [_report_fields(r.report) for r in got] == [
            _report_fields(r.report) for r in want
        ]
