"""repro.obs — zero-dependency telemetry: tracing spans, metrics, exposition.

The subsystem has four pieces, all stdlib-only:

* :mod:`repro.obs.tracing` — :class:`Tracer` builds a span tree per
  top-level operation (a monitor tick, an ``evaluate()`` call) with
  monotonic-clock durations and parent links, keeps a bounded ring
  buffer of finished traces, and exports/adopts picklable
  :class:`TraceContext` objects so serve workers can open child spans in
  another process and ship them back to be stitched under the tick's
  root.  :class:`NullTracer` (the default everywhere) times spans with
  the same clock but retains nothing — the span *durations* are still
  real because ``EvaluationReport.stage_seconds`` and
  ``TickReport.stage_seconds`` are derived from them; there is exactly
  one timing truth whether tracing is on or off.

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with typed
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments,
  cumulative snapshots, and delta merging so worker registries fold into
  the coordinator's with every reply and across ``restart_shard``.  It
  is the one store of counts: every engine holds a registry.

* :mod:`repro.obs.exposition` — ``registry.to_prometheus_text()`` /
  ``to_json()`` plus :class:`MetricsServer`, a stdlib ``http.server``
  scrape endpoint (``/metrics``, ``/metrics.json``, ``/traces``,
  ``/slow``) started via ``ServeCoordinator(metrics_port=...)``.

* :mod:`repro.obs.slowlog` — :class:`SlowQueryLog`, a top-N log of
  evaluations over a latency threshold with the request's ``explain()``
  plan attached.

Telemetry never touches RNG state or result bytes: every feed is a
read-only observation, and the lockstep suite (``tests/obs/``) proves results, reuse counters, and the
golden file byte-identical with :class:`NullTracer` vs. a full
:class:`Tracer` + registry.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .slowlog import SlowQueryLog
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    format_span_tree,
)
from .exposition import MetricsServer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "NullTracer",
    "SlowQueryLog",
    "Span",
    "TraceContext",
    "Tracer",
    "format_span_tree",
]
