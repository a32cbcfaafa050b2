"""A tick's world pass vs per-evaluation draws: the same notifications.

``ContinuousMonitor.tick`` looks up every world its due evaluations will
read in one ``prefetch_worlds`` call — the dirty influencers plus each
sampling request's live refine set at its planned world count — so the
tick adapts, compiles and samples its newcomers in one batch.  Random
fleets (adds, head and interior fixes, fixes before the first one,
removals, re-used ids) under mixed estimators — sampled, adaptive,
hybrid, bounds and reverse, one request at a non-default world count —
are held to the twin of ``tests.oracles.per_request_monitor``, whose
evaluations draw for themselves: notification payloads byte-equal tick by
tick, on both backends, at any refine-cache capacity (the world pass skips
the columns the cache will serve), and through an inline 2-shard
``ServeCoordinator``, whose reports (reuse counters included) equal the
single process's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.serve import ServeCoordinator
from repro.stream import ContinuousMonitor, SlidingWindow
from repro.stream.monitor import _result_payload
from tests.oracles import per_request_monitor
from tests.oracles.shapes import BACKENDS, MutatingWorld
from tests.serve.conftest import assert_reports_identical

pytestmark = [pytest.mark.oracles, pytest.mark.stream, pytest.mark.serve]

SEED, N_SAMPLES = 17, 32


def _subscriptions():
    here, there, aside = (Query.from_point(p) for p in ([5.0, 5.0], [2.0, 7.5], [7.0, 3.0]))
    slide = SlidingWindow(width=3, lag=1)
    return [
        ("forall", QueryRequest(here, (0,), "forall", 0.05), slide),
        ("exists", QueryRequest(there, (6, 7, 8), "exists", 0.1), None),
        ("pcnn", QueryRequest(here, (0,), "pcnn", 0.2), SlidingWindow(width=2)),
        ("raw-48", QueryRequest(there, (0,), "raw", n_samples=48), slide),
        ("reverse", QueryRequest(aside, (0,), "reverse_nn", 0.05), SlidingWindow(width=2)),
        ("adaptive", QueryRequest(aside, (4, 5, 6), "forall", 0.1,
                                  estimator="adaptive", precision=(0.25, 0.1)), None),
        ("hybrid", QueryRequest(aside, (0,), "forall", 0.1, estimator="hybrid"), slide),
        ("bounds", QueryRequest(there, (5, 6, 7), "forall", 0.3, estimator="bounds"), None),
    ]


def _world(seed):
    world = MutatingWorld(seed)
    for _ in range(5):
        world.generation += 1
        world.apply(world.add_event(f"o{world.generation}"))
    return world


def _events(world, n_events):
    events = []
    for _ in range(n_events):
        event = world.random_event()
        if event is not None:
            events.append(event)
            world.apply(event)
    return events


def _notes(report):
    return [
        (n.subscription, n.reason, n.reevaluated, n.changed, n.times, _result_payload(n.result))
        for n in report.notifications
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ticks=st.lists(st.integers(0, 4), min_size=2, max_size=7),
    refine_cache_size=st.sampled_from([64, 2, 0]),
)
def test_world_pass_notifies_what_per_request_draws_do(backend, seed, ticks, refine_cache_size):
    # Three identical worlds: the events come from the first; the twins
    # replay them through their own monitors' ingest.
    source, twin_world, served_world = _world(seed), _world(seed), _world(seed)
    kwargs = {
        "n_samples": N_SAMPLES, "seed": SEED, "backend": backend,
        "refine_cache_size": refine_cache_size,
    }
    pooled = ContinuousMonitor(QueryEngine(source.db, **kwargs))
    twin = per_request_monitor(twin_world.db, **kwargs)
    with ServeCoordinator(served_world.db, n_shards=2, mode="inline", **kwargs) as served:
        for name, request, window in _subscriptions():
            for monitor in (pooled, twin, served):
                monitor.subscribe(request, name=name, window=window)
        for now, n_events in enumerate(ticks, start=4):
            # ``_events`` applies the batch to the source world as it draws
            # it; the pooled monitor picks it up as an out-of-band delta.
            events = _events(source, n_events)
            got = pooled.tick(now=now)
            want = twin.tick(events, now=now)
            assert _notes(got) == _notes(want), (seed, now)
            assert_reports_identical(got, served.tick(events, now=now), (seed, now))
