"""Typed metrics: counters, gauges, fixed-bucket histograms, a registry.

The registry is deliberately small and stdlib-only.  Three properties
matter to the rest of the system:

* **The registry is the only store of counts.**  Every
  :class:`~repro.core.evaluator.QueryEngine` holds one; each component
  keeps handles to its instruments, and every reader of a count
  (``TickReport.reuse``, ``EvaluationReport.cache_*``, ``/metrics``)
  reads a counter's ``value`` — an int while only ints are added.

* **Snapshot/merge is the serve absorption pattern.**  Workers return
  *cumulative* :meth:`MetricsRegistry.snapshot` payloads in every reply;
  the coordinator keeps a per-shard last-seen snapshot and folds only
  the delta into its own registry (:meth:`MetricsRegistry.merge_delta`).
  Cumulative-over-the-wire means a dropped reply loses nothing and
  ``restart_shard`` just resets the last-seen snapshot; totals absorbed
  before the crash survive the replay.

* **Observation is neutral**: it never touches RNG state or result bytes.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
]

#: Default histogram buckets for latency-in-seconds instruments — wide
#: enough for a sub-millisecond prune and a multi-second cold tick.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, str] | None) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: LabelsKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value (an int while only ints are added)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def state(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """Point-in-time value (may go up or down)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def state(self) -> dict[str, Any]:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``counts[i]`` is the number of observations
    ``<= buckets[i]`` *for that bucket alone* internally; exposition
    renders the cumulative form.
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def state(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named, labelled instruments with snapshot/delta-merge support."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelsKey], Metric] = {}
        self._help: dict[str, str] = {}

    # -- instrument accessors (create-on-first-use) ---------------------

    def counter(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get(name, help, labels, Counter)

    def gauge(
        self, name: str, help: str = "", labels: dict[str, str] | None = None
    ) -> Gauge:
        return self._get(name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        buckets: Iterable[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        key = (str(name), _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if help:
                self._help.setdefault(key[0], help)
            metric = Histogram(buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _get(self, name, help, labels, cls):
        key = (str(name), _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            if help:
                self._help.setdefault(key[0], help)
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    # -- introspection --------------------------------------------------

    def value(self, name: str, labels: dict[str, str] | None = None) -> float:
        """Current scalar value (counter/gauge) or count (histogram); ``0``
        for an instrument never registered."""
        metric = self._metrics.get((str(name), _labels_key(labels)))
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter's or gauge's values over all its label sets."""
        return sum(
            metric.value
            for (key, _), metric in self._metrics.items()
            if key == name and not isinstance(metric, Histogram)
        )

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._metrics})

    # -- snapshot / merge (cross-process absorption) --------------------

    def snapshot(self) -> dict[str, Any]:
        """Cumulative picklable state of every instrument.

        Keys are ``name`` + rendered label set (stable across calls), so
        two snapshots of the same registry subtract cleanly.
        """
        out: dict[str, Any] = {}
        for (name, labels), metric in self._metrics.items():
            out[name + _format_labels(labels)] = {
                "name": name,
                "labels": list(labels),
                **metric.state(),
            }
        return out

    def merge_delta(
        self, snapshot: dict[str, Any], seen: dict[str, Any]
    ) -> None:
        """Fold a remote cumulative ``snapshot`` into this registry.

        ``seen`` is the caller-held last absorbed snapshot for the same
        source (e.g. per shard); only the difference since ``seen`` is
        added, then ``seen`` is updated in place.  Counters and
        histograms add deltas; gauges take the remote value as-is
        (last-writer-wins, which is what per-shard labelled gauges
        want).
        """
        for key, state in snapshot.items():
            prev = seen.get(key)
            name = state["name"]
            labels = dict(state.get("labels", []))
            kind = state.get("type")
            if kind == "counter":
                delta = state["value"] - (prev["value"] if prev else 0)
                if delta:
                    self.counter(name, labels=labels or None).inc(delta)
            elif kind == "gauge":
                self.gauge(name, labels=labels or None).set(state["value"])
            elif kind == "histogram":
                hist = self.histogram(
                    name, labels=labels or None, buckets=state["buckets"]
                )
                prev_counts = prev["counts"] if prev else [0] * len(
                    state["counts"]
                )
                for i, (new, old) in enumerate(
                    zip(state["counts"], prev_counts)
                ):
                    hist.counts[i] += new - old
                hist.sum += state["sum"] - (prev["sum"] if prev else 0.0)
                hist.count += state["count"] - (prev["count"] if prev else 0)
            seen[key] = state

    # -- exposition -----------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        by_name: dict[str, list[tuple[LabelsKey, Metric]]] = {}
        for (name, labels), metric in self._metrics.items():
            by_name.setdefault(name, []).append((labels, metric))
        lines: list[str] = []
        for name in sorted(by_name):
            series = sorted(by_name[name], key=lambda item: item[0])
            kind = series[0][1].kind
            help_text = self._help.get(name, "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, metric in series:
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.buckets, metric.counts):
                        cumulative += count
                        key = _format_labels(
                            labels + (("le", format(bound, "g")),)
                        )
                        lines.append(f"{name}_bucket{key} {cumulative}")
                    cumulative += metric.counts[-1]
                    inf_key = _format_labels(labels + (("le", "+Inf"),))
                    lines.append(f"{name}_bucket{inf_key} {cumulative}")
                    label_str = _format_labels(labels)
                    lines.append(f"{name}_sum{label_str} {metric.sum}")
                    lines.append(f"{name}_count{label_str} {metric.count}")
                else:
                    label_str = _format_labels(labels)
                    value = metric.value
                    rendered = (
                        repr(int(value))
                        if float(value).is_integer()
                        else repr(value)
                    )
                    lines.append(f"{name}{label_str} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """JSON-friendly mirror of :meth:`snapshot`."""
        return self.snapshot()
