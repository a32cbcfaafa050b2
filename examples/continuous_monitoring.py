"""Continuous monitoring over a live observation stream.

A dispatch center watches a synthetic road network: every object keeps
producing GPS fixes while three standing questions stay open — who shadows
the patrol route (P∀NNQ), who is near the depot *right now* (a sliding
window following the stream clock), and the handover schedule (PCNNQ).

Instead of re-running batch queries after every fix, the streaming
subsystem does the minimum: each ``tick`` ingests the fixes that arrived,
invalidates exactly the touched objects (their UST-tree segments, cached
worlds and arena tables — everything else is reused bit-identically), and
re-evaluates only the subscriptions whose influence sets the fixes could
touch, emitting per-subscription delta notifications.

The run is fully instrumented: a recording :class:`Tracer` turns every
tick into a span tree (printed per tick as a stage summary, and in full
for the initial evaluation), a :class:`MetricsRegistry` collects the
counters/histograms every layer feeds, a :class:`SlowQueryLog` keeps the
slowest evaluations with their explain plans, and a
:class:`MetricsServer` exposes it all over HTTP while the stream runs.

Run:  python examples/continuous_monitoring.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from repro import (
    ContinuousMonitor,
    MetricsRegistry,
    MetricsServer,
    Query,
    QueryEngine,
    QueryRequest,
    SlidingWindow,
    SlowQueryLog,
    Tracer,
    Trajectory,
    TrajectoryDatabase,
    format_span_tree,
)
from repro.analysis.hoeffding import samples_needed
from repro.data.synthetic import SyntheticWorkloadConfig, generate_workload
from repro.stream import AddObservation


def main() -> None:
    rng = np.random.default_rng(11)
    config = SyntheticWorkloadConfig(
        n_states=1500,
        branching=8.0,
        n_objects=60,
        lifetime=40,
        horizon=40,
        obs_interval=8,
    )
    workload = generate_workload(config, rng)

    # Re-stage the workload as a stream: each object is registered with
    # the observations it has produced up to the cutover tic; everything
    # later arrives live, one tick per tic.
    cutover = 20
    full = workload.db
    db = TrajectoryDatabase(full.space, full.chain)
    pending: dict[int, list[AddObservation]] = {}
    for obj in full:
        initial = [o for o in obj.observations if o.time <= cutover]
        if not initial:
            initial = [obj.observations.first]
        db.add_object(
            obj.object_id, initial, chain=obj.chain, ground_truth=obj.ground_truth
        )
        for o in obj.observations:
            if o.time > initial[-1].time:
                pending.setdefault(o.time, []).append(
                    AddObservation(obj.object_id, o.time, o.state)
                )
    print(
        f"network: {db.space.n_states} states; {len(db)} objects registered "
        f"with fixes up to t={cutover}; "
        f"{sum(len(v) for v in pending.values())} fixes still in flight"
    )

    n = samples_needed(0.02, 0.01)  # ±0.02 at 99% per estimate
    tracer = Tracer()
    metrics = MetricsRegistry()
    slow_log = SlowQueryLog(threshold_seconds=0.05)
    engine = QueryEngine(
        db, n_samples=n, seed=2, tracer=tracer, metrics=metrics,
        slow_log=slow_log,
    )
    monitor = ContinuousMonitor(engine)
    scrape = MetricsServer(
        metrics, port=0, tracer=tracer, slow_log=slow_log
    )
    print(f"telemetry endpoint (while this runs): {scrape.url}/metrics")

    # The patrol: ride along one object's ground-truth route (certain).
    host = full.get(full.object_ids[0])
    t0 = host.ground_truth.t_start
    patrol_states = host.ground_truth.states[5:25]
    patrol = Query.from_trajectory(Trajectory(t0 + 5, patrol_states), db.space)
    patrol_window = tuple(range(t0 + 5, t0 + 25))
    depot = Query.from_state(db.space, workload.sample_query_state())

    monitor.subscribe(
        QueryRequest(patrol, patrol_window, "forall", tau=0.3), name="escort"
    )
    monitor.subscribe(
        QueryRequest(patrol, patrol_window, "pcnn", tau=0.6, maximal_only=True),
        name="handover",
    )
    monitor.subscribe(
        QueryRequest(depot, (0,), "exists", tau=0.4),
        window=SlidingWindow(width=4, lag=1),
        name="depot",
    )

    print("\n=== tick 0: initial evaluation of all standing queries ===")
    report = monitor.tick(now=cutover)
    for note in report.notifications:
        print(f"  {note.subscription:9s} {_summary(note)}")
    print(f"  reuse: {_reuse(report)}")
    print("  trace of the initial tick:")
    for line in format_span_tree(tracer.last_trace, indent=2).splitlines():
        print(line)

    print("\n=== live ticks: one per tic, ingesting that tic's fixes ===")
    for t in range(cutover + 1, config.horizon + 1):
        events = pending.get(t, [])
        report = monitor.tick(events, now=t)
        deltas = [n_ for n_ in report.notifications if n_.changed]
        line = (
            f"  t={t:2d}: {len(events):2d} fixes, dirty={len(report.dirty):2d}, "
            f"re-evaluated {len(report.reevaluated)}/{len(report.notifications)}"
        )
        if deltas:
            line += " | " + "; ".join(
                f"{n_.subscription} CHANGED ({n_.reason}): {_summary(n_)}"
                for n_ in deltas
            )
        print(line)
        print(f"        reuse: {_reuse(report)}")
        print(f"        trace: {_trace_summary(tracer.last_trace)}")

    print("\n=== totals ===")
    decisions = metrics.total("scheduler_decisions_total")
    skipped = metrics.value("scheduler_decisions_total", {"reason": "clean"})
    print(
        f"  {monitor.stream.events_applied} events in {monitor.stream.batches} "
        f"batches over {monitor.ticks.value} ticks"
    )
    print(
        f"  scheduler: {decisions} decisions, {skipped} skipped "
        "(provably unchanged — served from cache)"
    )
    print(
        f"  worlds: {engine.worlds.hits.value} hits, {engine.worlds.partial_hits.value} "
        f"forward extensions, {engine.worlds.misses.value} redraws "
        f"({engine.worlds_invalidated.value} segments selectively invalidated)"
    )
    print(
        f"  index: {engine.index_updates.value} per-object updates, "
        f"{engine.index_rebuilds.value} full rebuild(s)"
    )

    print("\n=== telemetry ===")
    print(
        f"  metrics: {metrics.value('monitor_ticks_total'):.0f} ticks, "
        f"{metrics.value('queries_total', {'mode': 'forall'}):.0f} forall + "
        f"{metrics.value('queries_total', {'mode': 'pcnn'}):.0f} pcnn + "
        f"{metrics.value('queries_total', {'mode': 'exists'}):.0f} exists "
        f"evaluations, {metrics.value('worlds_sampled_total'):.0f} worlds "
        "sampled"
    )
    print("  Prometheus exposition excerpt (scrape the endpoint for all):")
    lines = metrics.to_prometheus_text().splitlines()
    for line in lines:
        if line.startswith(("monitor_ticks_total", "scheduler_decisions")):
            print(f"    {line}")
    slowest = slow_log.entries()
    if slowest:
        worst = slowest[0]
        print(
            f"  slow log: {len(slow_log)} evaluations over "
            f"{slow_log.threshold_seconds * 1e3:.0f} ms; slowest "
            f"{worst['name']} at {worst['seconds'] * 1e3:.1f} ms "
            f"({worst['explain']['n_candidates']} candidates, "
            f"{worst['explain']['n_samples']} samples)"
        )
    else:
        print("  slow log: empty — no evaluation crossed the threshold")
    scrape.close()


def _trace_summary(span) -> str:
    """One line per tick: root duration + its heaviest stages."""
    stages = sorted(
        span.children, key=lambda s: s.duration_seconds, reverse=True
    )
    parts = ", ".join(
        f"{s.name} {s.duration_seconds * 1e3:.1f}" for s in stages[:3]
    )
    return f"{span.duration_seconds * 1e3:.1f} ms ({parts})"


def _summary(note) -> str:
    """One-line gist of a notification's result."""
    result = note.result
    if note.subscription == "handover":
        entries = sorted(result.entries, key=lambda e: (e.times[0], e.object_id))
        parts = [
            f"{e.object_id}@{e.format_times()}(P≈{e.probability:.2f})"
            for e in entries[:3]
        ]
        more = f" +{len(entries) - 3}" if len(entries) > 3 else ""
        return f"{len(entries)} intervals: " + ", ".join(parts) + more
    if not result.results:
        return f"no object above tau (window {note.times[0]}-{note.times[-1]})"
    top = result.results[0]
    return (
        f"top {top.object_id} P≈{top.probability:.3f} "
        f"(window {note.times[0]}-{note.times[-1]}, "
        f"{len(result.results)} above tau)"
    )


def _reuse(report) -> str:
    r = report.reuse
    return (
        f"{r['cache_hits']} world hits, {r['cache_partial_hits']} extensions, "
        f"{r['cache_misses']} redraws, {r['index_updates']} index updates, "
        f"{r['index_rebuilds']} rebuilds"
    )


if __name__ == "__main__":
    main()
