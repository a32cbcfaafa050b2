"""One counting truth across the serve tier.

Every count lives in the registry each engine holds: a tick's
``TickReport.reuse`` is the delta of the registry counters behind it, a
coordinator's registry absorbs its workers' counts through one merge
path, and each evaluation's ``EvaluationReport.cache_*`` counts the
world-cache lookups that evaluation's blocks made — on one process and
on any number of shards alike.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import QueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeCoordinator
from repro.stream.monitor import ContinuousMonitor

from tests.serve.conftest import (
    SEED,
    event_script,
    seam_script,
    seam_subscriptions,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.serve

#: ``TickReport.reuse`` key -> the registry counter it is a delta of
#: (``sampler_calls`` sums two of them).
REUSE_COUNTERS = {
    "cache_hits": ("world_cache_hits_total",),
    "cache_partial_hits": ("world_cache_partial_hits_total",),
    "cache_misses": ("world_cache_misses_total",),
    "sampler_calls": ("world_cache_misses_total", "direct_draws_total"),
    "index_updates": ("index_updates_total",),
    "index_rebuilds": ("index_rebuilds_total",),
    "worlds_invalidated": ("worlds_invalidated_total",),
    "estimate_cache_hits": ("estimate_cache_hits_total",),
    "estimate_cache_misses": ("estimate_cache_misses_total",),
    "estimate_columns_reused": ("estimate_columns_reused_total",),
    "estimate_columns_refreshed": ("estimate_columns_refreshed_total",),
}
AGREED = (
    "world_cache_hits_total",
    "world_cache_partial_hits_total",
    "world_cache_misses_total",
    "worlds_invalidated_total",
)


def _counts(metrics: MetricsRegistry) -> dict[str, int]:
    return {
        key: sum(metrics.value(name) for name in names)
        for key, names in REUSE_COUNTERS.items()
    }


def _lookups(notification) -> tuple[int, int, int]:
    report = notification.result.report
    return report.cache_hits, report.cache_partial_hits, report.cache_misses


def test_engine_holds_a_registry():
    engine = QueryEngine(twin_db(), n_samples=10, seed=SEED)
    assert isinstance(engine.metrics, MetricsRegistry)
    shared = MetricsRegistry()
    assert QueryEngine(twin_db(), n_samples=10, seed=SEED, metrics=shared).metrics is shared


def test_reuse_is_the_registry_delta_on_one_process_and_two_shards():
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=120, seed=SEED))
    single = monitor.engine.metrics
    with ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="inline", n_samples=120
    ) as coord:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(zip(event_script(db_a), event_script(db_b))):
            for tick, events, metrics in (
                (monitor.tick, ev_a, single),
                (coord.tick, ev_b, coord.metrics),
            ):
                before = _counts(metrics)
                report = tick(events)
                after = _counts(metrics)
                assert report.reuse == {k: after[k] - before[k] for k in after}, t
        for name in AGREED:
            assert single.value(name) == coord.metrics.value(name), name
        assert single.value("worlds_invalidated_total") > 0


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize(
    "subscriptions, script",
    [(standard_subscriptions, event_script), (seam_subscriptions, seam_script)],
    ids=["standard", "seam"],
)
def test_every_report_counts_its_own_lookups(n_shards, subscriptions, script):
    """Staged blocks are filled before any evaluation of the batch runs;
    their lookups still land in the report of the evaluation that takes
    the block, exactly as on one process."""
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    counted = 0
    with ServeCoordinator(
        db_b, n_shards=n_shards, seed=SEED, mode="inline", n_samples=100,
        metrics=MetricsRegistry(),
    ) as coord:
        for name, request in subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(zip(script(db_a), script(db_b))):
            ra, rb = monitor.tick(ev_a), coord.tick(ev_b)
            for na, nb in zip(ra.notifications, rb.notifications):
                if na.reevaluated:
                    assert _lookups(na) == _lookups(nb), (t, na.subscription)
                    counted += sum(_lookups(na))
    assert counted > 0
