"""Process-mode serving: spawned workers, pipes, crash recovery.

These tests exercise the OS-level transport the inline lockstep matrix
cannot: pickled protocol commands and replies (sampled world blocks
included) over pipes, hard worker death (``os._exit``) surfacing as a
descriptive :class:`ShardFailure`, restart-and-replay resuming
bit-identically to a deployment that never crashed, and a coordinator
process that stays on one thread and starts no worker for options its
engine rejects.  The transport's timeout and partial-failure paths are
pinned with fake pipes in ``test_transport_faults.py``.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import QueryEngine
from repro.serve import ServeCoordinator, ShardFailure
from repro.stream.monitor import ContinuousMonitor

from tests.serve.conftest import (
    SEED,
    assert_reports_identical,
    event_script,
    feasible_extension,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.serve


@pytest.fixture
def process_pair():
    """A single-process monitor twinned with a 2-worker process coordinator."""
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    coord = ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="process", n_samples=100, timeout=60
    )
    try:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        yield db_a, db_b, monitor, coord
    finally:
        coord.close()


def test_process_lockstep(process_pair):
    db_a, db_b, monitor, coord = process_pair
    for t, (ev_a, ev_b) in enumerate(
        zip(event_script(db_a), event_script(db_b))
    ):
        ra = monitor.tick(ev_a)
        rb = coord.tick(ev_b)
        assert_reports_identical(ra, rb, context=("process", t))
        assert [k for k in rb.stage_seconds if k.startswith("shard")] == [
            "shard0",
            "shard1",
        ]


def test_process_crash_containment_and_replay(process_pair):
    db_a, db_b, monitor, coord = process_pair
    script_a, script_b = event_script(db_a), event_script(db_b)
    for t in range(3):
        assert_reports_identical(
            monitor.tick(script_a[t]), coord.tick(script_b[t]), (t,)
        )
    coord.inject_crash(1)
    with pytest.raises(ShardFailure) as excinfo:
        coord.tick(script_b[3])
    message = str(excinfo.value)
    assert excinfo.value.shard == 1
    assert "worker 1" in message and "restart_shard(1)" in message
    for name, _ in standard_subscriptions():
        assert name in message
    replay = coord.restart_shard(1)
    assert replay["restored"] >= 1
    # The failed tick's events are already in the coordinator database
    # (applied before fan-out); recovery re-ticks without re-applying.
    ra = monitor.tick(script_a[3])
    rb = coord.tick((), now=monitor.now)
    assert_reports_identical(ra, rb, ("recovery",))
    for t in range(4, 6):
        assert_reports_identical(
            monitor.tick(script_a[t]), coord.tick(script_b[t]), (t,)
        )


def test_process_coordinator_over_a_queried_database():
    """A default (native where it builds) engine's draws leave the
    database's objects picklable, so a process coordinator built over it
    afterwards ships its shard views and answers like a monitor over an
    untouched twin."""
    db_a, db_b = twin_db(), twin_db()
    subscriptions = standard_subscriptions()
    QueryEngine(db_b, n_samples=50, seed=SEED).evaluate_many([r for _, r in subscriptions])
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    with ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="process", n_samples=100, timeout=60
    ) as coord:
        for name, request in subscriptions:
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(zip(event_script(db_a)[:3], event_script(db_b)[:3])):
            assert_reports_identical(monitor.tick(ev_a), coord.tick(ev_b), ("queried", t))


def test_smoke_load_two_workers():
    """Downsized load test: many objects/subscriptions across 2 workers."""
    from repro.core.queries import Query, QueryRequest
    from tests.conftest import make_random_world

    db_a, _ = make_random_world(seed=7, n_objects=24, span=8, obs_every=3)
    db_b, _ = make_random_world(seed=7, n_objects=24, span=8, obs_every=3)
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=60, seed=SEED))
    with ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="process", n_samples=60, timeout=120
    ) as coord:
        for i in range(12):
            request = QueryRequest(
                Query.from_point([float(1 + i % 5), float(2 + i % 7)]),
                (2 + i % 3, 4, 5),
                ("forall", "exists", "pcnn")[i % 3],
                0.05 + 0.01 * (i % 4),
            )
            monitor.subscribe(request, name=f"sub{i}")
            coord.subscribe(request, name=f"sub{i}")
        ids_a, ids_b = sorted(db_a.object_ids), sorted(db_b.object_ids)
        for t in range(4):
            ev_a = [feasible_extension(db_a, ids_a[(3 * t + j) % len(ids_a)]) for j in range(3)]
            ev_b = [feasible_extension(db_b, ids_b[(3 * t + j) % len(ids_b)]) for j in range(3)]
            ra = monitor.tick(ev_a)
            rb = coord.tick(ev_b)
            assert_reports_identical(ra, rb, context=("load", t))


def _run_script(tmp_path, source: str):
    """Run ``source`` in its own interpreter, capturing the stderr of its
    whole process tree (coordinator, workers, the stdlib resource tracker)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    script = tmp_path / "serve_script.py"
    script.write_text(source)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    return subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=170
    )


_TICK_SCRIPT = """
import glob
import threading

from repro.serve import ServeCoordinator
from tests.serve.conftest import SEED, event_script, standard_subscriptions, twin_db

if __name__ == "__main__":
    segments = set(glob.glob("/dev/shm/psm_*"))
    threads = threading.active_count()
    db = twin_db()
    with ServeCoordinator(
        db, n_shards=2, seed=SEED, mode="process", n_samples=100, timeout=60
    ) as coord:
        assert threading.active_count() == threads, threading.enumerate()
        for name, request in standard_subscriptions():
            coord.subscribe(request, name=name)
        for events in event_script(db):
            coord.tick(events)
            assert set(glob.glob("/dev/shm/psm_*")) <= segments
        assert threading.active_count() == threads, threading.enumerate()
    print("ticked")
"""


def test_process_mode_leaves_no_tracebacks_threads_or_segments(tmp_path):
    """Every reply comes home over its pipe: opening the coordinator starts
    no thread in its process, no tick creates a shared-memory segment, and
    nothing in the process tree prints a traceback."""
    import glob

    before = set(glob.glob("/dev/shm/psm_*"))
    done = _run_script(tmp_path, _TICK_SCRIPT)
    assert done.returncode == 0 and "ticked" in done.stdout, done.stderr[-2000:]
    assert "Traceback" not in done.stderr and "KeyError" not in done.stderr, done.stderr[-2000:]
    assert "leaked shared_memory" not in done.stderr, done.stderr[-2000:]
    assert set(glob.glob("/dev/shm/psm_*")) <= before


_REJECT_SCRIPT = """
import multiprocessing
import threading

from repro.serve import ServeCoordinator
from tests.conftest import make_paper_example_db

if __name__ == "__main__":
    for option in ({"n_samples": 0}, {"refine_cache_size": -1}, {"backend": "bogus"}):
        try:
            ServeCoordinator(make_paper_example_db(), n_shards=2, seed=1, mode="process", **option)
        except ValueError as exc:
            print("rejected", sorted(option), exc)
        else:
            raise SystemExit(f"accepted {option}")
        assert multiprocessing.active_children() == [], multiprocessing.active_children()
        assert threading.active_count() == 1, threading.enumerate()
    print("done")
"""


def test_rejected_process_coordinator_starts_no_worker_and_leaves_no_thread(tmp_path):
    """Bad engine values are caught by the coordinator's own engine, which
    is built before any worker process is spawned."""
    done = _run_script(tmp_path, _REJECT_SCRIPT)
    assert done.returncode == 0 and "done" in done.stdout, done.stderr[-2000:]
    assert done.stdout.count("rejected") == 3, done.stdout
    assert "Traceback" not in done.stderr, done.stderr[-2000:]
