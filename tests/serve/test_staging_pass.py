"""A tick's refinement staging is one pass, on one process and on shards.

The world pass plans and filters each due request once; the jobs it
computes are both the tick's world targets and the blocks the batch
fills — one stacked local fill, or one fan-out round per tick that
carries world items and column jobs together, each command also carrying
the coordinator's invalidation flag.  So a serving tick with events and
due sampling subscriptions makes exactly two rounds (``ApplyEvents``,
then the staging), a tick whose subscriptions are all clean only the
first, and ``build_plan`` / ``_fill_job`` run once per due request per
tick — while payloads and reuse counters stay those of one process.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.evaluator as evaluator
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.serve import ServeCoordinator
from repro.statespace.base import StateSpace
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    RemoveObject,
    SlidingWindow,
)
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain
from tests.serve.conftest import (
    SEED,
    assert_reports_identical,
    feasible_extension,
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
    """``build_plan`` / ``_fill_job`` calls and jobs handed to
    ``_live_columns`` on one engine, per tick."""

    def __init__(self, engine, monkeypatch):
        self.plans = self.jobs = self.live = 0
        build_plan = evaluator.build_plan

        def plan(*args, **kwargs):
            self.plans += 1
            return build_plan(*args, **kwargs)

        fill_job, live_columns = engine._fill_job, engine._live_columns

        def job(request):
            self.jobs += 1
            return fill_job(request)

        def live(jobs):
            self.live += len(jobs)
            return live_columns(jobs)

        monkeypatch.setattr(evaluator, "build_plan", plan)
        monkeypatch.setattr(engine, "_fill_job", job)
        monkeypatch.setattr(engine, "_live_columns", live)

    def take(self):
        counts, self.plans, self.jobs, self.live = (self.plans, self.jobs, self.live), 0, 0, 0
        return counts


@pytest.mark.parametrize("serve", [False, True], ids=["monitor", "coordinator"])
def test_each_due_request_is_planned_once_per_tick(serve, monkeypatch):
    """At most one ``build_plan``, ``_fill_job`` and live-column job per
    due request per tick, on the coordinator as on one process (a fresh
    epoch — the refresh tick — stages inside the batch instead)."""
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
            plans, jobs, live = counts.take()
            assert plans == jobs == due, (t, plans, jobs, due)
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
    fill = engine._fill_blocks
    monkeypatch.setattr(
        engine, "_fill_blocks",
        lambda jobs, lives, warm=(): passes.append(len(jobs)) or fill(jobs, lives, warm),
    )
    for events in ([], [feasible_extension(db, sorted(db.object_ids)[0])]):
        passes.clear()
        assert monitor.tick(events).reevaluated
        assert len(passes) == 1 and passes[0] >= 1


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
    refine_cache_size=st.sampled_from([0, 3, 64]),
)
def test_two_shards_stage_what_one_process_does(seed, ticks, refine_cache_size):
    """Sampled subscriptions beside ``hybrid`` and ``exact`` ones, whose
    requests are not staged: an inline 2-shard coordinator notifies the
    payloads of one process, with its reuse counters, tick by tick, at
    refine-cache capacities 0, 3 and the default."""
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
