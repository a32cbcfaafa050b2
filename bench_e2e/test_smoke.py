"""Tier-1 guard: the benchmark runs end to end and reports what it declares.

Collected by the plain ``python -m pytest`` run from the repository root.
Asserts names, units, output checks and entry-point resolution only —
never a timing — so it is as deterministic as the program itself.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_smoke_run_reports_every_declared_metric():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "11"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert "MISMATCH" not in done.stdout  # serve/single notification digests
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for declared in SPEC["end_to_end"] + SPEC["per_layer"]:
            reported = metrics.get(f"{workload}:{declared['name']}")
            assert reported is not None, (workload, declared["name"])
            assert reported["unit"] == declared["unit"], (workload, declared["name"])
        assert metrics[f"{workload}:harness.failed_ops_frac"]["value"] == 0
        assert metrics[f"{workload}:harness.missing_entrypoints"]["value"] == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
