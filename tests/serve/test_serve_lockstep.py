"""Cross-shard lockstep: sharded serving is bit-identical to one process.

The tentpole correctness contract of ``repro.serve``: for shard counts
{1, 2, 4} and both backends, a ``ServeCoordinator`` driven
by an event script produces byte-for-byte the notifications,
probabilities and per-tick reuse counters of an unsharded
``ContinuousMonitor`` over the same seeded history.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import QueryEngine
from repro.serve import ServeCoordinator, ShardFailure, shard_of
from repro.stream.monitor import ContinuousMonitor, _result_payload

from tests.oracles.shapes import BACKENDS
from tests.serve.conftest import (
    SEED,
    assert_reports_identical,
    event_script,
    feasible_extension,
    seam_script,
    seam_subscriptions,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.serve


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("backend", BACKENDS)
def test_lockstep_matrix(n_shards, backend):
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(
        QueryEngine(db_a, n_samples=120, seed=SEED, backend=backend)
    )
    with ServeCoordinator(
        db_b,
        n_shards=n_shards,
        seed=SEED,
        mode="inline",
        n_samples=120,
        backend=backend,
    ) as coord:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(
            zip(event_script(db_a), event_script(db_b))
        ):
            ra = monitor.tick(ev_a)
            rb = coord.tick(ev_b)
            assert_reports_identical(ra, rb, context=(n_shards, backend, t))
            # The serving report additionally carries per-shard timings.
            shard_keys = [
                k for k in rb.stage_seconds if k.startswith("shard")
            ]
            assert shard_keys == [f"shard{s}" for s in range(n_shards)]


@pytest.mark.parametrize(
    "n_shards, mode, crash_before",
    [(1, "inline", None), (2, "inline", None), (2, "process", None), (2, "inline", 2)],
    ids=["1-inline", "2-inline", "2-process", "2-inline-crash"],
)
def test_lockstep_reverse_and_hybrid(n_shards, mode, crash_before):
    """The same twin experiment over the wire paths the standard script
    leaves out: ``"states"`` jobs staged for reverse requests, blocks a
    hybrid request fills live from inside ``evaluate``, and — in the crash
    case — ``restart_shard`` replaying the lost worker's segments through
    the same ``WarmWorlds`` command a tick's prefetch sends."""
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    sampled_by_hybrid = 0
    with ServeCoordinator(
        db_b, n_shards=n_shards, seed=SEED, mode=mode, n_samples=100, timeout=60
    ) as coord:
        for name, request in seam_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        for t, (ev_a, ev_b) in enumerate(zip(seam_script(db_a), seam_script(db_b))):
            ra = monitor.tick(ev_a)
            if t == crash_before:
                coord.inject_crash(1)
                with pytest.raises(ShardFailure):
                    coord.tick(ev_b)
                assert coord.restart_shard(1)["restored"] >= 1
                # The failed tick's events already reached the coordinator
                # database; recovery re-ticks without re-applying them.
                rb = coord.tick((), now=monitor.now)
            else:
                rb = coord.tick(ev_b)
            assert_reports_identical(ra, rb, context=(n_shards, mode, t))
            kinds = {n.subscription: type(n.result).__name__ for n in rb.notifications}
            assert kinds.get("reverse", "ReverseNNResult") == "ReverseNNResult"
            sampled_by_hybrid += sum(
                n.result.report.sampled_objects
                for n in rb.notifications
                if n.subscription == "hybrid" and n.reevaluated
            )
    assert sampled_by_hybrid > 0  # else the live-fill path never ran


def test_overflowed_log_syncs_wholesale_with_the_same_answers(monkeypatch):
    """The wholesale fallback through its real trigger: with
    ``MUTATION_LOG_LIMIT = 0`` the database can never name what a tick
    touched, so every sync carries ``SyncShard(wholesale=True)`` and every
    worker flushes — result payloads stay those of the default twin tick
    by tick, at strictly more index rebuilds and world redraws."""
    from repro.serve import engine as serve_engine

    flags = []
    sync_shard = serve_engine.SyncShard
    monkeypatch.setattr(
        serve_engine,
        "SyncShard",
        lambda wholesale: flags.append(wholesale) or sync_shard(wholesale=wholesale),
    )
    totals = {}
    payloads = {}
    for limit in (None, 0):
        db = twin_db()
        if limit is not None:
            db.MUTATION_LOG_LIMIT = limit
        flags.clear()
        with ServeCoordinator(
            db, n_shards=2, seed=SEED, mode="inline", n_samples=100
        ) as coord:
            for name, request in standard_subscriptions():
                coord.subscribe(request, name=name)
            reports = [coord.tick(events) for events in event_script(db)]
        assert flags and all(flag is (limit == 0) for flag in flags), (limit, flags)
        payloads[limit] = [
            [(n.subscription, _result_payload(n.result)) for n in r.notifications]
            for r in reports
        ]
        totals[limit] = {
            key: sum(r.reuse[key] for r in reports)
            for key in ("index_rebuilds", "cache_misses")
        }
    assert payloads[0] == payloads[None]
    assert totals[0]["index_rebuilds"] > totals[None]["index_rebuilds"]
    assert totals[0]["cache_misses"] > totals[None]["cache_misses"]


def test_shard_count_is_invisible_to_results():
    """1-shard and 4-shard deployments agree with each other directly."""
    reports = {}
    for n_shards in (1, 4):
        db = twin_db()
        with ServeCoordinator(
            db, n_shards=n_shards, seed=SEED, mode="inline", n_samples=100
        ) as coord:
            for name, request in standard_subscriptions():
                coord.subscribe(request, name=name)
            reports[n_shards] = [
                [
                    (n.subscription, n.reason, _result_payload(n.result))
                    for n in coord.tick(events).notifications
                ]
                for events in event_script(db)
            ]
    assert reports[1] == reports[4]


def test_bad_world_count_fails_on_the_coordinator_before_any_command_leaves():
    db = twin_db()
    with ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=50) as coord:
        # A pending mutation: syncing it would broadcast to every shard.
        ext = feasible_extension(db, sorted(db.object_ids)[0])
        db.add_observation(ext.object_id, ext.time, ext.state)
        sent = []
        coord._transport.request = lambda shard, command: sent.append(command)
        q = standard_subscriptions()[0][1].query
        ids = list(db.object_ids)
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="n_samples must be"):
                coord.engine.prefetch_worlds(n_samples=bad)
            with pytest.raises(ValueError, match="n_samples must be"):
                coord.engine.distance_tensor(ids, q, [2, 3], n_samples=bad)
            with pytest.raises(ValueError, match="n_samples must be"):
                coord.engine.reverse_distance_tensors(ids, q, [2, 3], n_samples=bad)
        assert sent == []
    with pytest.raises(ValueError, match="n_samples must be"):
        ServeCoordinator(db, n_shards=2, seed=SEED, mode="inline", n_samples=2.5)


def test_seed_is_required():
    db = twin_db()
    with pytest.raises(ValueError, match="seed"):
        ServeCoordinator(db, n_shards=2, mode="inline")
    with pytest.raises(ValueError, match="unknown serve mode"):
        ServeCoordinator(db, n_shards=2, seed=SEED, mode="threads")


def test_shard_of_is_stable_and_balanced():
    """Routing is a pure content hash: stable across processes/salt."""
    assert shard_of("o0", 4) == shard_of("o0", 4)
    counts = [0, 0, 0, 0]
    for i in range(400):
        s = shard_of(f"obj-{i}", 4)
        assert 0 <= s < 4
        counts[s] += 1
    assert min(counts) > 0


def test_inline_crash_containment_and_restart():
    """Inline transport honours the crash hook and recovery contract."""
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    with ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="inline", n_samples=100
    ) as coord:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
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
        assert "worker 1" in message
        for name, _ in standard_subscriptions():
            assert name in message
        assert "restart_shard(1)" in message
        # The failed tick already applied its events to the coordinator
        # database (crash-safe ordering), so recovery re-ticks without
        # them; the twin plays the same batch normally.
        coord.restart_shard(1)
        ra = monitor.tick(script_a[3])
        rb = coord.tick((), now=monitor.now)
        assert_reports_identical(ra, rb, ("recovery",))
        for t in range(4, 6):
            assert_reports_identical(
                monitor.tick(script_a[t]), coord.tick(script_b[t]), (t,)
            )


def test_crash_at_sync_broadcast_keeps_recovery_counters_exact():
    """A dead shard that owns none of the tick's events surfaces at the
    all-shard ``SyncShard`` broadcast — after the coordinator has already
    consumed the sync's ``index_updates``/``worlds_invalidated`` deltas.
    The sync must roll back so the recovery tick re-reports them exactly
    like the single-process twin (including ``worlds_invalidated``)."""
    db_a, db_b = twin_db(), twin_db()
    monitor = ContinuousMonitor(QueryEngine(db_a, n_samples=100, seed=SEED))
    with ServeCoordinator(
        db_b, n_shards=2, seed=SEED, mode="inline", n_samples=100
    ) as coord:
        for name, request in standard_subscriptions():
            monitor.subscribe(request, name=name)
            coord.subscribe(request, name=name)
        assert_reports_identical(monitor.tick([]), coord.tick([]), ("warm",))
        # Mutate an object and crash the *other* shard, so ApplyEvents
        # succeeds and the failure hits the subsequent sync broadcast.
        target = sorted(o.object_id for o in db_a)[0]
        dead = 1 - shard_of(target, 2)
        ext_a = feasible_extension(db_a, target)
        ext_b = feasible_extension(db_b, target)
        coord.inject_crash(dead)
        with pytest.raises(ShardFailure) as excinfo:
            coord.tick([ext_b])
        assert excinfo.value.shard == dead
        coord.restart_shard(dead)
        ra = monitor.tick([ext_a])
        rb = coord.tick((), now=monitor.now)
        assert ra.reuse["index_updates"] == 1
        assert ra.reuse["worlds_invalidated"] >= 1
        assert_reports_identical(ra, rb, ("sync-crash recovery",))
        assert_reports_identical(monitor.tick([]), coord.tick([]), ("after",))
