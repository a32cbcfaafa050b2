"""One workload, in this process: set-up, timed phases, checks, traced pass.

Started by ``run.py`` as a subprocess (so that peak memory, CPU and the
serve tier's worker processes belong to one workload only); prints one
JSON object — the workload's row — as its only line on stdout.

Must stay importable without side effects: the serve tier spawns its
workers with the ``spawn`` start method, which re-imports this module in
every worker.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process (workers inherit them).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# The way the root conftest.py does it: the src layout, without installing.
for _path in (str(SRC), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402 - after the path bootstrap
from layers import layer_metrics  # noqa: E402
from tracing import OP_KEY, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Shares of ``--seconds`` spent in the open and the closed loop of the
#: untraced rounds.
OPEN_SHARE, CLOSED_SHARE = 0.45, 0.55
#: The same in a ``--trace 1`` run — one short untraced reference round —
#: and the share of its traced closed loop.
REFERENCE_OPEN_SHARE, REFERENCE_CLOSED_SHARE, TRACED_SHARE = 0.15, 0.25, 0.5
#: Rounds per run, each with its own set-up; ``setup_s`` is their median.
ROUNDS = 3


def _timed_setup(workload) -> float:
    workload.close()
    gc.collect()
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def _round(workload, open_s: float, closed_s: float) -> dict:
    """Fresh set-up, then an open-loop slice, then a closed-loop slice.

    The open loop goes first because its length in ops is fixed by the clock
    (``open_s * rate``): every round then runs the same op at the same place
    in both slices, which is what lets rounds be compared op by op.
    """
    setup_s = _timed_setup(workload)
    opened = harness.open_loop(workload.run_op, 0, workload.n_ops, open_s, workload.open_rate_hz)
    workload.counters.clear()
    cpu0 = harness.tree_cpu_seconds()
    closed = harness.closed_loop(workload.run_op, len(opened), workload.n_ops, closed_s)
    cpu = harness.tree_cpu_seconds() - cpu0
    events = workload.counters["events"]
    return {"setup_s": setup_s, "closed": closed, "open": opened, "cpu": cpu, "events": events}


def _per_op_fastest(rounds, phase: str, seconds_of) -> list[float]:
    """One value per op: its fastest round, for the ops every round ran."""
    per_round = [{op.index: seconds_of(op) for op in r[phase] if op.ok} for r in rounds]
    common = sorted(set.intersection(*(set(values) for values in per_round)))
    return [min(values[i] for values in per_round) for i in common]


def measure_end_to_end(workload, args, row: dict) -> dict[int, float]:
    """The untraced rounds and the output checks; returns each op's service time.

    Every round sets the workload up afresh and replays the same script from
    op 0, so each op is measured once per round, at moments seconds apart.
    The program does identical work each time, so whatever a measurement
    shows above the fastest of the three was added by other tenants of the
    machine: an op's latency is its fastest round.  (Medians of three were
    tried first; a burst that covers two rounds goes straight through them.)
    """
    trace_only = args.trace == 1
    n_rounds = 1 if (trace_only or args.smoke) else ROUNDS
    open_s = args.seconds * (REFERENCE_OPEN_SHARE if trace_only else OPEN_SHARE)
    closed_s = args.seconds * (REFERENCE_CLOSED_SHARE if trace_only else CLOSED_SHARE)
    rounds = [_round(workload, open_s / n_rounds, closed_s / n_rounds) for _ in range(n_rounds)]

    durations = _per_op_fastest(rounds, "closed", lambda op: op.end - op.start)
    notify = _per_op_fastest(rounds, "open", lambda op: op.notified - op.due)
    ops_s = len(durations) / sum(durations)
    op_p50, op_p90, op_p99 = (harness.percentile_ms(durations, q) for q in (50, 90, 99))
    row["end_to_end"] = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "throughput_ops_s": ops_s,
        "op_p50_ms": op_p50,
        "cpu_s_per_op": min(r["cpu"] / max(len(r["closed"]), 1) for r in rounds),
        "peak_rss_mb": harness.tree_peak_rss_mb(),
    }
    opened = [op for r in rounds for op in r["open"]]
    last = rounds[-1]
    row["per_layer"].update(
        {
            "harness.op_p90_ms": op_p90,
            "harness.op_p99_ms": op_p99,
            "harness.notify_p50_ms": harness.percentile_ms(notify, 50),
            "harness.events_per_s": ops_s * last["events"] / max(len(last["closed"]), 1),
            "harness.notify_p90_ms": harness.percentile_ms(notify, 90),
            "harness.generator_lag_p90_ms": harness.percentile_ms(
                [op.start - op.due for op in opened], 90
            ),
            "harness.backlog_max": max((op.backlog for op in opened), default=0),
        }
    )

    # -- output checks
    last_ops = last["open"] + last["closed"]
    digests = [[op.digest for op in r["open"] + r["closed"]] for r in rounds]
    n_common = min(len(d) for d in digests)
    # One seed, one script: every round must have produced the same outputs.
    rounds_equal = all(d[:n_common] == digests[0][:n_common] for d in digests)
    checked, check_failed = workload.verify(last_ops)
    row["attempted"] = sum(len(d) for d in digests)
    row["failed"] = sum(not op.ok for r in rounds for op in r["open"] + r["closed"]) + check_failed
    if not rounds_equal:
        print("rounds of one seed produced different outputs", file=sys.stderr)
        row["failed"] = row["attempted"]
    row["per_layer"]["serve.coordinator.speedup_vs_single"] = workload.speedup_vs_single
    row["info"].update(
        {
            "samples": {
                "rounds": n_rounds,
                "closed": [len(r["closed"]) for r in rounds],
                "open": [len(r["open"]) for r in rounds],
            },
            "result_digest": harness.combine_digests(last_ops, workload.digest_ops),
            "digest_ops": min(len(last_ops), workload.digest_ops),
            "op_digests": digests[-1],
            "checks": {"checked": checked, "failed": check_failed, "rounds_equal": rounds_equal},
        }
    )
    service: dict[int, float] = {}
    for r in rounds:
        for op in r["open"] + r["closed"]:
            service[op.index] = min(op.end - op.start, service.get(op.index, float("inf")))
    return service


def measure_layers(workload, args, row: dict, untraced: dict[int, float]) -> None:
    """The traced pass: one traced set-up, then a traced closed loop from op 0."""
    recorder = SpanRecorder()
    recorder.install()
    try:
        span = recorder.begin(OP_KEY)
        _timed_setup(workload)
        recorder.end(span)
        setup_summary = recorder.summary()
        recorder.reset()
        workload.counters.clear()
        wall0 = perf_counter()
        traced = harness.closed_loop(
            workload.run_op, 0, workload.n_ops, args.seconds * TRACED_SHARE, recorder
        )
        wall = perf_counter() - wall0
    finally:
        recorder.uninstall()
    row["attempted"] += len(traced)
    row["failed"] += sum(not op.ok for op in traced)
    metrics, checks = layer_metrics(recorder, setup_summary, workload.counters, len(traced), wall)
    row["per_layer"].update(metrics)
    # Same ops on both sides: the traced pass replays the script from op 0.
    both = [op for op in traced if op.index in untraced]
    row["per_layer"]["harness.trace_overhead_frac"] = 1.0 - sum(
        untraced[op.index] for op in both
    ) / sum(op.end - op.start for op in both)
    row["info"]["trace_checks"] = checks
    row["info"]["missing_entrypoints"] = recorder.missing
    row["info"]["samples"]["traced"] = len(traced)
    recorder.dump(OUT / f"{workload.name}.spans.jsonl")


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    t0 = perf_counter()
    workload.generate()
    row = {
        "workload": workload.name,
        "attempted": 0,
        "failed": 0,
        "end_to_end": {},
        "per_layer": {"harness.generate_s": perf_counter() - t0},
        "info": {},
    }
    try:
        untraced = measure_end_to_end(workload, args, row)
        if args.trace != 0:
            measure_layers(workload, args, row, untraced)
    finally:
        workload.close()
    row["per_layer"]["harness.failed_ops_frac"] = row["failed"] / max(row["attempted"], 1)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), required=True,
                        help="0: end-to-end phases only; 1: traced pass with a short "
                        "untraced reference; 2: both")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    row = run(args)
    print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
