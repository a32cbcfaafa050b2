"""Load generation and measurement: closed loop, open loop, process-tree cost.

Single-threaded by design: one client issues ops back to back (closed
loop) or on a fixed schedule (open loop).  Nothing here imports the
program under test.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import sys
import time
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import OP_KEY

#: A phase stops early after this many ops in a row raised: the state is
#: broken (a dead shard fails every later tick) and timing it is pointless.
MAX_CONSECUTIVE_FAILURES = 3


@dataclass
class Op:
    """One attempted op.  Times are ``perf_counter`` readings."""

    index: int
    due: float  # when the input became available (== start in a closed loop)
    start: float
    notified: float  # result in the caller's hands (last callback / return)
    end: float
    ok: bool
    digest: str
    backlog: int = 0  # inputs already due but not yet started, at start


def digest_of(payload) -> str:
    """Short content hash; floats enter through ``repr`` so every bit counts."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def combine_digests(ops: list[Op], limit: int) -> str:
    head = "".join(op.digest for op in ops[:limit])
    return hashlib.sha256(head.encode()).hexdigest()[:16]


def _attempt(run_op, index: int, due: float | None, backlog: int, recorder) -> Op:
    if recorder is not None:
        recorder.op_id = index
        span = recorder.begin(OP_KEY)
    start = perf_counter()
    try:
        digest, notified = run_op(index)
        ok = True
    except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
        print(f"op {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        digest, notified, ok = "raised", perf_counter(), False
    end = perf_counter()
    if recorder is not None:
        recorder.end(span)
    return Op(index, start if due is None else due, start, notified, end, ok, digest, backlog)


def _broken(ops: list[Op]) -> bool:
    tail = ops[-MAX_CONSECUTIVE_FAILURES:]
    return len(tail) == MAX_CONSECUTIVE_FAILURES and not any(op.ok for op in tail)


def closed_loop(run_op, first: int, last: int, seconds: float, recorder=None) -> list[Op]:
    """Issue ops ``first, first+1, ...`` back to back for ``seconds``."""
    ops: list[Op] = []
    deadline = perf_counter() + seconds
    index = first
    while index < last and perf_counter() < deadline and not _broken(ops):
        ops.append(_attempt(run_op, index, None, 0, recorder))
        index += 1
    return ops


def open_loop(run_op, first: int, last: int, seconds: float, rate_hz: float) -> list[Op]:
    """Inputs fall due every ``1/rate_hz`` s whatever the program does.

    One input per op, first in first out; an input that falls due while an
    earlier op still runs waits, and that wait is part of its latency
    (``notified - due``).  Inputs due after ``seconds`` are not issued.
    """
    ops: list[Op] = []
    t0 = perf_counter()
    n_due = min(last - first, int(seconds * rate_hz))
    for k in range(n_due):
        due = t0 + k / rate_hz
        now = perf_counter()
        if now < due:
            time.sleep(due - now)
            now = perf_counter()
        if now - t0 > seconds or _broken(ops):
            break
        backlog = min(n_due, int((now - t0) * rate_hz) + 1) - (k + 1)
        ops.append(_attempt(run_op, first + k, due, backlog, None))
    return ops


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q)) if seconds else 0.0


# --------------------------------------------------------------------------
# cost of the whole process tree (this process + the serve tier's workers)
# --------------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def _child_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def tree_cpu_seconds() -> float:
    """User+system CPU consumed so far by this process and its live workers."""
    total = time.process_time()
    for pid in _child_pids():
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _TICK
        except (OSError, IndexError, ValueError):
            pass  # worker gone or no /proc: its share is not counted
    return total


def _peak_rss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def tree_peak_rss_mb() -> float:
    """Peak resident set of this process plus that of each live worker."""
    own = _peak_rss_kb("self") or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_peak_rss_kb(str(pid)) for pid in _child_pids())) / 1024.0
