"""Telemetry neutrality: tracing + metrics never change result bytes.

The hard contract behind turning observability on in production: a fully
instrumented deployment (recording ``Tracer``, ``MetricsRegistry``,
``SlowQueryLog``) produces byte-for-byte the notifications, result
payloads, reuse counters and RNG-dependent probabilities of an
un-instrumented twin on the same seeded history — across both backends
and shard counts {1, 2}.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import QueryEngine
from repro.obs import MetricsRegistry, SlowQueryLog, Tracer
from repro.serve import ServeCoordinator
from repro.stream.monitor import _result_payload

from tests.oracles.shapes import BACKENDS
from tests.serve.conftest import (
    SEED,
    assert_reports_identical,
    event_script,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.obs


@pytest.mark.parametrize("backend", BACKENDS)
def test_engine_evaluate_is_bitwise_neutral(backend):
    """Single-engine twin: every result byte identical with telemetry on."""
    db_a, db_b = twin_db(), twin_db()
    plain = QueryEngine(db_a, n_samples=120, seed=SEED, backend=backend)
    tracer = Tracer()
    traced = QueryEngine(
        db_b,
        n_samples=120,
        seed=SEED,
        backend=backend,
        tracer=tracer,
        metrics=MetricsRegistry(),
        slow_log=SlowQueryLog(threshold_seconds=0.0),
    )
    for name, request in standard_subscriptions():
        ra = plain.evaluate(request)
        rb = traced.evaluate(request)
        assert type(ra) is type(rb), name
        da, db_dict = ra.report.as_dict(), rb.report.as_dict()
        da.pop("stage_seconds"), db_dict.pop("stage_seconds")
        assert da == db_dict, name
        # Probabilities are RNG-dependent — payload equality proves
        # telemetry consumed no entropy.
        assert _result_payload(ra) == _result_payload(rb), name
        # Both reports expose the same span-derived stage keys.
        assert set(ra.report.stage_seconds) == set(rb.report.stage_seconds)
    # The traced twin actually recorded: one trace per evaluation, with
    # the staged pipeline under each root.
    assert len(tracer.traces) == len(standard_subscriptions())
    for root in tracer.traces:
        assert root.name == "evaluate"
        child_names = [c.name for c in root.children]
        assert child_names[:3] == ["plan", "filter", "estimate"]
        assert "threshold" in child_names


@pytest.mark.parametrize("n_shards", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_serve_lockstep_with_telemetry(n_shards, backend):
    """Instrumented sharded serving twins an un-instrumented one exactly."""
    db_a, db_b = twin_db(), twin_db()
    kwargs = dict(seed=SEED, mode="inline", n_samples=120, backend=backend)
    with ServeCoordinator(db_a, n_shards=n_shards, **kwargs) as plain, (
        ServeCoordinator(
            db_b,
            n_shards=n_shards,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
            slow_log=SlowQueryLog(threshold_seconds=0.0),
            **kwargs,
        )
    ) as traced:
        for name, request in standard_subscriptions():
            plain.subscribe(request, name=name)
            traced.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(
            zip(event_script(db_a), event_script(db_b))
        ):
            ra = plain.tick(ev_a)
            rb = traced.tick(ev_b)
            assert_reports_identical(
                ra, rb, context=("telemetry", n_shards, backend, t)
            )
            assert set(ra.stage_seconds) == set(rb.stage_seconds)
        # Telemetry recorded the whole run without perturbing it.
        assert traced.metrics.value("serve_ticks_total") == t + 1
        assert traced.metrics.value("monitor_ticks_total") == t + 1
        assert len(traced.tracer.traces) == t + 1


def test_monitor_stage_keys_identical_null_vs_recording():
    """``stage_seconds`` has one truth: span durations, both tracer modes."""
    from repro.stream.monitor import ContinuousMonitor

    db_a, db_b = twin_db(), twin_db()
    plain = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    traced = ContinuousMonitor(
        QueryEngine(db_b, n_samples=100, seed=SEED, tracer=Tracer())
    )
    for name, request in standard_subscriptions():
        plain.subscribe(request, name=name)
        traced.subscribe(request, name=name)
    for ev_a, ev_b in zip(event_script(db_a), event_script(db_b)):
        ra = plain.tick(ev_a)
        rb = traced.tick(ev_b)
        assert set(ra.stage_seconds) == set(rb.stage_seconds)
        assert set(ra.stage_seconds) >= {"ingest", "schedule", "notify"}
        assert all(v >= 0.0 for v in rb.stage_seconds.values())
