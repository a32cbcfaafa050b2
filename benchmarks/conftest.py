"""Benchmark bootstrap: src-layout import path + machine-readable results.

Besides mirroring the root conftest's ``sys.path`` setup, this conftest
persists every benchmark session's results to ``BENCH_kernels.json`` at the
repo root so the performance trajectory is tracked across PRs (CI uploads
the file as an artifact).  Two sources feed it:

* pytest-benchmark statistics for every timed kernel, under ``timings``
  (absent under ``--benchmark-disable``, where kernels run once without
  timing);
* custom records pushed through the :func:`bench_record` fixture, under
  ``kernels`` — e.g. the fused-vs-loop speedup table or the monitor-tick
  latency profile, which time themselves and therefore report even in
  disabled/smoke mode.

Schema 2 (see :data:`KNOWN_TOP_LEVEL` / :data:`KNOWN_KERNELS`) is strict:
an unknown kernel name or a stray top-level key fails the session loudly
instead of silently accreting dead entries — the schema-1 file shipped an
empty ``"kernels": {}`` placeholder for several PRs precisely because
nothing validated it.
"""

import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_SRC = str(_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

BENCH_JSON = _ROOT / "BENCH_kernels.json"

#: Every custom (self-timed) kernel a session may record.  Adding a kernel
#: to ``bench_kernels.py`` means adding its name here — ``bench_record``
#: rejects anything else, so the JSON cannot drift from the bench suite.
KNOWN_KERNELS = frozenset(
    {
        "adapt_many",
        "compile_batch",
        "fused_speedup",
        "ingest_throughput",
        "knn_k",
        "monitor_tick",
        "monitor_tick_obs_overhead",
        "native_speedup",
        "prune_many",
        "refine_layout",
        "serve_rounds",
        "write_path",
    }
)

#: The complete schema-2 top-level key set.  ``kernels`` holds the custom
#: records, ``timings`` the pytest-benchmark statistics.
KNOWN_TOP_LEVEL = frozenset(
    {"schema", "pytest_exit_status", "kernels", "timings"}
)

_custom_records: dict = {}


@pytest.fixture(scope="session")
def bench_record():
    """Record a named payload into ``BENCH_kernels.json``.

    Usage: ``bench_record("fused_speedup", {...})``.  Records are merged
    into the session's output file at exit; re-recording a name within one
    session overwrites it.  Unknown names fail immediately — register new
    kernels in :data:`KNOWN_KERNELS`.
    """

    def record(name: str, payload) -> None:
        name = str(name)
        if name not in KNOWN_KERNELS:
            raise ValueError(
                f"unknown bench kernel {name!r}; known kernels: "
                f"{sorted(KNOWN_KERNELS)} (register new ones in "
                "benchmarks/conftest.py::KNOWN_KERNELS)"
            )
        _custom_records[name] = payload

    return record


def _harvest_benchmark_stats(config) -> dict:
    """pytest-benchmark per-kernel statistics (empty when disabled)."""
    session = getattr(config, "_benchmarksession", None)
    out: dict = {}
    if session is None:
        return out
    for bench in getattr(session, "benchmarks", []):
        try:
            stats = bench.stats
            out[bench.name] = {
                "mean_s": float(stats.mean),
                "stddev_s": float(stats.stddev),
                "min_s": float(stats.min),
                "median_s": float(stats.median),
                "rounds": int(stats.rounds),
                "ops_per_s": float(stats.ops),
            }
        except Exception:  # pragma: no cover - defensive against API drift
            continue
    return out


def _load_previous() -> dict:
    """The last session's schema-2 payload, if any.

    A schema-1 (or unreadable) file contributes nothing — its top-level
    custom records and dead placeholders do not migrate; the next full
    bench run regenerates them under the strict layout.  A schema-2 file
    with unexpected keys fails loudly: either the file was hand-edited or
    a writer bypassed :func:`bench_record`.
    """
    try:
        previous = json.loads(BENCH_JSON.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(previous, dict) or previous.get("schema") != 2:
        return {}
    unknown = set(previous) - KNOWN_TOP_LEVEL
    unknown_kernels = set(previous.get("kernels", {})) - KNOWN_KERNELS
    if unknown or unknown_kernels:
        raise ValueError(
            f"{BENCH_JSON.name} contains unknown keys: "
            f"top-level {sorted(unknown)}, kernels {sorted(unknown_kernels)}; "
            "fix the file or register the kernels in "
            "benchmarks/conftest.py"
        )
    return previous


def pytest_sessionfinish(session, exitstatus):
    timings = _harvest_benchmark_stats(session.config)
    if not timings and not _custom_records:
        return  # nothing measured (e.g. a collect-only run); keep the file
    # Merge into the existing file so a partial run (one kernel, one -k
    # selection) refreshes only what it measured instead of erasing the
    # last complete session's results.
    previous = _load_previous()
    payload = {
        "schema": 2,
        "pytest_exit_status": int(exitstatus),
        "kernels": {**previous.get("kernels", {}), **_custom_records},
        "timings": {**previous.get("timings", {}), **timings},
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
