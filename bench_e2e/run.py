#!/usr/bin/env python3
"""bench_e2e: the repository's end-to-end benchmark.

    python bench_e2e/run.py --seed 11                 # all four workloads
    python bench_e2e/run.py --workload fleet_live --seed 3 --seconds 16 --trace 0

Each workload runs in a fresh subprocess (``measure.py``) with its stderr
captured under ``bench_e2e/out/``.  stdout carries the metric table — every
metric by name with its unit — and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With one
workload the metric names are bare (``--trace 1``: the per-layer metrics,
otherwise the end-to-end ones); with several they are prefixed
``<workload>:``.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SMOKE_SECONDS = 1.5


def load_spec() -> dict:
    """BENCHMARK.json: the workload names, ``run_seconds`` and every metric's unit."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def environment() -> dict:
    """What every output row records about the machine and the code."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    try:
        import cffi  # noqa: F401 - presence only; loading the tier would build it

        native = "buildable" if shutil.which("cc") or shutil.which("gcc") else "no-compiler"
    except ImportError:
        native = "no-cffi"
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        native = "disabled"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "native_tier": native,
        "git_commit": commit or "unknown",
    }


def _shm_segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*"))


def run_workload(name: str, args, trace: int) -> dict:
    """One workload in its own subprocess; returns its row (raises on failure)."""
    OUT.mkdir(exist_ok=True)
    log_path = OUT / f"{name}.stderr.log"
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    shm_before = _shm_segments()
    with open(log_path, "w") as log:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=log, env=env, text=True)
    if done.returncode != 0:
        tail = "".join(log_path.read_text().splitlines(keepends=True)[-15:])
        raise RuntimeError(f"{name} exited with code {done.returncode}; stderr ends:\n{tail}")
    row = json.loads(done.stdout.strip().splitlines()[-1])
    stderr = log_path.read_text()
    # Process mode makes the stdlib resource tracker print one KeyError
    # traceback per shared-memory segment it is asked to forget twice.
    row["per_layer"]["serve.transport.tracker_errors"] = sum(
        line.startswith("KeyError: '/psm_") for line in stderr.splitlines()
    )
    row["per_layer"]["serve.transport.shm_leaked_segments"] = len(_shm_segments() - shm_before)
    return row


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=11,
                        help="every generator and engine seed derives from it")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: all four")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one workload's timed phases "
                        f"(default {spec['run_seconds']}, the driver's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end phases only; 1: traced pass only "
                        "(after a short untraced reference); default: both")
    parser.add_argument("--no-trace", action="store_true", help="same as --trace 0")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at about 1/20 size, same metric names")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    names = args.workload or workloads
    trace = 0 if args.no_trace else 2 if args.trace is None else args.trace

    env = environment()
    print("# bench_e2e " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" seed={args.seed} seconds={args.seconds:g} smoke={int(args.smoke)}")
    try:
        rows = {name: run_workload(name, args, trace) for name in names}
    except RuntimeError as exc:  # a workload subprocess failed: no result line
        print(exc, file=sys.stderr)
        return 1

    # fleet_live_serve2 must notify exactly what fleet_live does: compare the
    # closed-loop op digests of the two runs over the ops both completed.
    if "fleet_live" in rows and "fleet_live_serve2" in rows:
        single = rows["fleet_live"]["info"]["op_digests"]
        served = rows["fleet_live_serve2"]["info"]["op_digests"]
        common = min(len(single), len(served))
        if single[:common] != served[:common]:
            print("# MISMATCH: fleet_live_serve2 notifications differ from fleet_live")
            rows["fleet_live_serve2"]["failed"] = rows["fleet_live_serve2"]["attempted"]

    print(f"{'workload':<18} {'metric':<42} {'value':>14}  unit")
    metrics = {}
    attempted = failed = 0
    for name, row in rows.items():
        attempted += row["attempted"]
        failed += row["failed"]
        shown = {}
        if trace != 1:
            shown.update(row["end_to_end"])
        if trace != 0:
            shown.update(row["per_layer"])
        for metric, value in shown.items():
            print(f"{name:<18} {metric:<42} {value:>14.6g}  {units[metric]}")
            key = metric if len(rows) == 1 else f"{name}:{metric}"
            metrics[key] = {"value": value, "unit": units[metric]}
        info = row["info"]
        print(f"# {name}: samples={info['samples']} result_digest={info['result_digest']}"
              f" (first {info['digest_ops']} ops) checks={info['checks']}"
              f" attempted={row['attempted']} failed={row['failed']}")
        if trace != 0:
            print(f"# {name}: trace_checks={info['trace_checks']}"
                  f" missing_entrypoints={info['missing_entrypoints']}")
        row["environment"] = env
        info.pop("op_digests")
        (OUT / f"{name}.result.json").write_text(json.dumps(row, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
