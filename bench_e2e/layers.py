"""Per-layer metrics of the traced pass, and the trace's self-consistency checks.

Timings are *self* seconds per traced op (``s/op``), counts are per traced
op (``1/op``); a layer = the module its entry points live in.  Counts come
from the wrappers' probes and from the program's public report fields
(``TickReport.reuse``, ``TickReport.stage_seconds``, ``EvaluationReport``)
that the workloads sum into ``counters``.
"""

from __future__ import annotations

from tracing import LAYER_ENTRYPOINTS, OP_KEY, PROBE_KEY

#: A stage smaller than this share of the traced wall is left out of the
#: stage-agreement check: wrapper overhead alone moves it by more than 10 %.
MIN_STAGE_SHARE = 0.02


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, setup_summary, counters, n_ops: int, wall: float):
    """``(metrics, checks)`` for one traced closed loop of ``n_ops`` ops."""
    summary = recorder.summary()
    per_op = 1.0 / max(n_ops, 1)

    def self_s(key):
        return summary.get(key, {}).get("self_s", 0.0)

    def incl_s(key):
        return summary.get(key, {}).get("incl_s", 0.0)

    def calls(key):
        return summary.get(key, {}).get("calls", 0)

    count = recorder.counts.__getitem__  # a Counter: 0 for what never happened

    m: dict[str, float] = {}
    for key in sorted({f"{layer}.{stem}" for layer, stem, _, _ in LAYER_ENTRYPOINTS}):
        m[f"{key}_s"] = self_s(key) * per_op
    # Only ever built during set-up; roundtrips run on the fan-out threads.
    m["spatial.ust_tree.build_s"] = setup_summary.get("spatial.ust_tree.build", {}).get("self_s", 0.0)
    m["serve.transport.roundtrip_s"] = incl_s("serve.transport.roundtrip") * per_op
    for name, key in (
        ("markov.adaptation.setup_adapt_s", "markov.adaptation.adapt"),
        ("markov.compiled.setup_compile_s", "markov.compiled.compile"),
        ("trajectory.diamonds.setup_compute_s", "trajectory.diamonds.compute"),
    ):
        m[name] = setup_summary.get(key, {}).get("self_s", 0.0)
    m["stream.scheduler.decide_incl_s"] = incl_s("stream.scheduler.decide") * per_op
    m["stream.monitor.notify_s"] = counters["stage_notify"] * per_op
    m["harness.op_self_s"] = (self_s(OP_KEY) + self_s(PROBE_KEY)) * per_op

    events = count("stream.ingest.apply.events")
    decisions = calls("stream.scheduler.decide")
    filter_runs = recorder.children("core.evaluator.explain", "stream.scheduler.decide")
    lookups = counters["cache_hits"] + counters["cache_partial_hits"] + counters["cache_misses"]
    tensors = counters["estimate_cache_hits"] + counters["estimate_cache_misses"]
    n_shards = counters["n_shards"]
    tick_wall = incl_s("serve.coordinator.tick_self")
    m.update(
        {
            "markov.adaptation.calls": calls("markov.adaptation.adapt") * per_op,
            "markov.adaptation.calls_per_event": _ratio(calls("markov.adaptation.adapt"), events),
            "markov.compiled.calls": calls("markov.compiled.compile") * per_op,
            "trajectory.diamonds.calls": calls("trajectory.diamonds.compute") * per_op,
            "spatial.ust_tree.update_calls": calls("spatial.ust_tree.update") * per_op,
            "spatial.ust_tree.prune_calls": calls("spatial.ust_tree.prune") * per_op,
            "spatial.ust_tree.prune_selectivity": _ratio(
                count("spatial.ust_tree.prune.influencers"),
                count("spatial.ust_tree.prune.objects"),
            ),
            "stream.ingest.events": events * per_op,
            "stream.ingest.rejected": count("stream.ingest.apply.raised") * per_op,
            "stream.scheduler.decisions": decisions * per_op,
            "stream.scheduler.due": count("stream.scheduler.decide.due") * per_op,
            "stream.scheduler.skipped_clean": count("stream.scheduler.decide.skipped_clean") * per_op,
            "stream.scheduler.filter_runs": len(filter_runs) * per_op,
            "stream.scheduler.skip_ratio": _ratio(
                count("stream.scheduler.decide.skipped_clean"), decisions
            ),
            "core.evaluator.explain_calls": calls("core.evaluator.explain") * per_op,
            "markov.arena.calls": calls("markov.arena.sample") * per_op,
            "markov.arena.paths_drawn": count("markov.arena.sample.paths_drawn") * per_op,
            "markov.arena.table_builds": count("markov.arena.sample.table_builds") * per_op,
            "core.estimators.calls": calls("core.estimators.estimate") * per_op,
            "core.worlds.hits": counters["cache_hits"] * per_op,
            "core.worlds.partial_hits": counters["cache_partial_hits"] * per_op,
            "core.worlds.misses": counters["cache_misses"] * per_op,
            "core.worlds.hit_ratio": _ratio(counters["cache_hits"], lookups),
            "core.worlds.invalidated": counters["worlds_invalidated"] * per_op,
            "core.evaluator.columns_reused": counters["estimate_columns_reused"] * per_op,
            "core.evaluator.columns_refreshed": counters["estimate_columns_refreshed"] * per_op,
            "core.evaluator.refine_cache_hit_ratio": _ratio(counters["estimate_cache_hits"], tensors),
            "stream.monitor.notifications": counters["notifications"] * per_op,
            "stream.monitor.changed": counters["changed"] * per_op,
            "serve.coordinator.serial_frac": (
                1.0 - counters["busy_max_s"] / tick_wall if tick_wall else 0.0
            ),
            "serve.transport.requests": calls("serve.transport.roundtrip") * per_op,
            "serve.worker.busy_s": counters["busy_sum_s"] * per_op,
            "serve.worker.busy_max_s": counters["busy_max_s"] * per_op,
            "serve.worker.skew": _ratio(counters["busy_max_s"] * n_shards, counters["busy_sum_s"]),
        }
    )

    # -- check 1: layer self times + harness self time add up to the traced wall
    accounted = sum(row["self_s"] for row in summary.values())
    closure_err = abs(wall - accounted) / wall
    # -- check 2: stage totals seen from outside agree with the program's own
    if counters["stage_evaluate"] or counters["stage_ingest"]:
        outside = {
            "ingest": incl_s("stream.ingest.apply")
            + incl_s("core.evaluator.prefetch")
            + sum(recorder.children("serve.transport.wait", "serve.coordinator.tick_self")),
            "schedule": incl_s("stream.scheduler.decide"),
            "evaluate": incl_s("core.evaluator.evaluate_self"),
        }
        inside = {stage: counters["stage_" + stage] for stage in outside}
    else:
        outside = {
            "filter": incl_s("spatial.ust_tree.prune"),
            "estimate": incl_s("core.estimators.estimate"),
        }
        inside = {stage: counters[stage + "_s"] for stage in outside}
    stage_err = max(
        (
            abs(outside[s] - inside[s]) / inside[s]
            for s in outside
            if inside[s] >= MIN_STAGE_SHARE * wall
        ),
        default=0.0,
    )
    m["harness.trace_closure_err_frac"] = closure_err
    m["harness.stage_agreement_err_frac"] = stage_err
    m["harness.missing_entrypoints"] = len(recorder.missing)
    checks = {
        "closure_within_2pct": closure_err <= 0.02,
        "stages_within_10pct": stage_err <= 0.10,
        "stages_outside_s": outside,
        "stages_program_s": inside,
    }
    return m, checks
