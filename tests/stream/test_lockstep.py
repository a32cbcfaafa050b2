"""Lockstep guarantees of selective invalidation.

The streaming subsystem's acceptance bar: after any ``tick()``, seeded
query results must be **bit-identical** between

* selective invalidation (per-object UST-tree updates,
  ``WorldCache.invalidate_objects``, arena eviction) and the wholesale
  fallback (full rebuild + full flush per mutation) replaying the same
  subscription/event history — the fallback reached the way production
  reaches it, on a twin database whose mutation log is too short to name
  what changed (``MUTATION_LOG_LIMIT = 0``), and
* the monitor's standing results and a **freshly built**
  engine evaluating the same standing queries against the final database
  state,

on both sampling backends.
"""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    RemoveObject,
)
from repro.stream.monitor import _result_payload
from tests.conftest import make_random_world
from tests.oracles.shapes import BACKENDS

pytestmark = pytest.mark.stream

SEED = 29


def _twin_db():
    db, _ = make_random_world(seed=11, n_objects=6, span=10, obs_every=4)
    return db


def _subscriptions():
    q = Query.from_point([5.0, 5.0])
    moving = Query.from_point([3.0, 6.0])
    return [
        ("forall", QueryRequest(q, (2, 3, 4, 5), "forall", 0.05)),
        ("exists", QueryRequest(moving, (4, 5, 6), "exists", 0.1)),
        ("pcnn", QueryRequest(q, (3, 4, 5, 6), "pcnn", 0.2)),
        ("raw", QueryRequest(moving, (2, 3), "raw")),
    ]


def _event_script(db, chain_rng):
    """Deterministic tick-by-tick events, valid against either twin.

    Extensions replay each object's ground-truth endpoint (always chain-
    feasible); the added object's observations come from a seeded walk of
    the shared chain so both twins ingest identical batches.
    """

    def extend(object_id, offset=1):
        obj = db.get(object_id)
        return AddObservation(
            object_id, obj.t_last + offset, int(obj.ground_truth.states[-1])
        )

    walk = [int(chain_rng.integers(db.space.n_states))]
    for _ in range(6):
        nxt, probs = db.chain.successors(walk[-1], 0)
        walk.append(int(chain_rng.choice(nxt, p=probs)))
    ids = db.object_ids
    return [
        [],  # quiet tick: every subscription must be provably clean
        [extend(ids[0])],
        [AddObject("fresh", [(2, walk[0]), (5, walk[3]), (8, walk[6])])],
        [extend(ids[1]), extend(ids[2])],
        [RemoveObject(ids[3])],
        [],
    ]


def _monitor(db, backend="compiled", log_limit=None):
    """A monitor over ``db``; ``log_limit`` overrides the database's
    ``MUTATION_LOG_LIMIT`` (``0``: every sync is the wholesale fallback)."""
    if log_limit is not None:
        db.MUTATION_LOG_LIMIT = log_limit
    engine = QueryEngine(db, n_samples=120, seed=SEED, backend=backend)
    monitor = ContinuousMonitor(engine)
    for name, request in _subscriptions():
        monitor.subscribe(request, name=name)
    return monitor


def _assert_same_answers(r_inc, r_full):
    """What a tick tells its subscribers — not why it re-evaluated: an
    overflowed log reports ``full_invalidation`` with a forced reason by
    design."""
    for a, b in zip(r_inc.notifications, r_full.notifications):
        assert a.subscription == b.subscription
        assert a.changed == b.changed
        assert _result_payload(a.result) == _result_payload(b.result)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIncrementalVsWholesale:
    def test_tick_results_bit_identical(self, backend):
        """Same events, same seed: selective invalidation and full
        rebuild-per-mutation tell subscribers the same every tick —
        and selective invalidation provably does less sampling work."""
        db_inc, db_full = _twin_db(), _twin_db()
        inc = _monitor(db_inc, backend)
        full = _monitor(db_full, backend, log_limit=0)
        script_inc = _event_script(db_inc, np.random.default_rng(5))
        script_full = _event_script(db_full, np.random.default_rng(5))
        for events_inc, events_full in zip(script_inc, script_full):
            r_inc = inc.tick(events_inc)
            r_full = full.tick(events_full)
            assert r_full.full_invalidation == bool(events_full)
            assert not r_inc.full_invalidation
            _assert_same_answers(r_inc, r_full)
        # The equivalence is interesting because the work differs: the
        # wholesale twin redrew every influencer per mutated tick, the
        # logged one only the dirty objects.
        assert inc.engine.worlds.misses.value < full.engine.worlds.misses.value
        assert inc.engine.index_rebuilds.value < full.engine.index_rebuilds.value
        assert inc.engine.worlds_invalidated.value > 0

    def test_quiet_first_ticks_identical_costs(self, backend):
        """Without mutations there is nothing to fall back from: the two
        twins do literally the same work."""
        db_inc, db_full = _twin_db(), _twin_db()
        inc = _monitor(db_inc, backend)
        full = _monitor(db_full, backend, log_limit=0)
        for _ in range(2):
            r_inc, r_full = inc.tick(), full.tick()
            assert r_inc.reuse == r_full.reuse
            for a, b in zip(r_inc.notifications, r_full.notifications):
                assert _result_payload(a.result) == _result_payload(b.result)


@pytest.mark.parametrize("backend", BACKENDS)
def test_standing_results_match_freshly_built_engine(backend):
    """After the full event script, every standing result (including ones
    served from cache by the skip rule) is bit-identical to a brand-new
    engine evaluating the same requests against the final database."""
    db = _twin_db()
    monitor = _monitor(db, backend)
    for events in _event_script(db, np.random.default_rng(5)):
        monitor.tick(events)

    replica = _twin_db()
    for events in _event_script(replica, np.random.default_rng(5)):
        # Replay the mutations only — no queries — to reach the same state.
        for event in events:
            if isinstance(event, AddObservation):
                replica.add_observation(event.object_id, event.time, event.state)
            elif isinstance(event, AddObject):
                replica.add_object(event.object_id, event.observations)
            else:
                replica.remove_object(event.object_id)

    fresh = _monitor(replica, backend)
    report = fresh.tick()
    assert report.reevaluated == tuple(n for n, _ in _subscriptions())
    by_name = {s.name: s.last_result for s in monitor.subscriptions}
    for note in report.notifications:
        assert _result_payload(note.result) == _result_payload(
            by_name[note.subscription]
        )


def _refinement_db(seed=13):
    db, _ = make_random_world(seed=seed, n_objects=8, span=12, obs_every=4)
    return db


def _refinement_script(db):
    """Mixed history biased toward *interior* refinements — observations
    between existing fixes that tighten diamonds without extending
    lifespans.  This is the steady-state regime where the dirty-column
    tensor cache patches in place (stable influence sets, one dirty
    column per event), interleaved with the structural events (add,
    remove, extension) that force full rebuilds."""

    def refine(object_id, t):
        obj = db.get(object_id)
        return AddObservation(object_id, t, int(obj.ground_truth.states[t]))

    def extend(object_id):
        obj = db.get(object_id)
        return AddObservation(
            object_id, obj.t_last + 1, int(obj.ground_truth.states[-1])
        )

    ids = db.object_ids
    rng = np.random.default_rng(3)
    walk = [int(rng.integers(db.space.n_states))]
    for _ in range(6):
        nxt, probs = db.chain.successors(walk[-1], 0)
        walk.append(int(rng.choice(nxt, p=probs)))
    return [
        [],  # quiet: every subscription provably clean
        [refine(ids[0], 6)],
        [refine(ids[1], 2), refine(ids[2], 6)],
        [],
        [AddObject("fresh", [(3, walk[0]), (6, walk[3]), (9, walk[6])])],
        [refine(ids[0], 2)],  # second refinement, different segment
        [RemoveObject(ids[3])],
        [refine(ids[4], 10)],  # outside the windows: a ranged skip
        [extend(ids[5])],
        [],
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_dirty_column_patching_matches_wholesale(backend):
    """The tentpole bit-identity bar: dirty-column re-estimation (cached
    tensors patched in place, worlds redrawn per object) emits identical
    results to the wholesale fallback (the log-less twin) across a mixed
    event history — and the cache demonstrably engaged, so the parity is
    not vacuous."""
    db_inc, db_full = _refinement_db(), _refinement_db()
    inc = _monitor(db_inc, backend)
    full = _monitor(db_full, backend, log_limit=0)
    script_inc = _refinement_script(db_inc)
    script_full = _refinement_script(db_full)
    for events_inc, events_full in zip(script_inc, script_full):
        _assert_same_answers(inc.tick(events_inc), full.tick(events_full))
    # The logged twin served tensors from the dirty-column cache
    # (hits with columns reused); the log-less one never could.
    assert inc.engine.estimate_cache_hits.value > 0
    assert inc.engine.estimate_columns_reused.value > 0
    assert inc.engine.estimate_columns_refreshed.value > 0
    assert full.engine.estimate_cache_hits.value == 0
    assert inc.engine.worlds.misses.value < full.engine.worlds.misses.value


def test_mutation_log_overflow_forces_full_recompute():
    """Overflowing the bounded mutation log between ticks leaves the
    delta unattributable (``changed_ranges_since`` → ``None``): the tick
    must force re-evaluation of everything — and the recomputed results
    must be bit-identical to a freshly built engine over the final
    database state."""
    db = _refinement_db(seed=17)
    db.MUTATION_LOG_LIMIT = 8  # instance override: overflow in a handful
    monitor = _monitor(db)
    first = monitor.tick()
    assert first.reevaluated == tuple(n for n, _ in _subscriptions())
    hits_before = monitor.engine.estimate_cache_hits.value

    # Out-of-band churn: 5 add/remove pairs = 10 mutations > the limit.
    for i in range(5):
        db.add_object(f"tmp{i}", [(0, 0)])
        db.remove_object(f"tmp{i}")
    assert db.changed_ranges_since(monitor._db_version_seen) is None

    report = monitor.tick()
    assert report.full_invalidation
    assert report.dirty == frozenset()
    assert report.reevaluated == tuple(n for n, _ in _subscriptions())
    assert all(n.reason == "unknown-mutations" for n in report.notifications)
    # The estimate cache could not prove any column clean: no hits.
    assert monitor.engine.estimate_cache_hits.value == hits_before

    # Lockstep with a fresh engine over the same final database state.
    replica = _refinement_db(seed=17)
    fresh = _monitor(replica)
    fresh_report = fresh.tick()
    by_name = {s.name: s.last_result for s in monitor.subscriptions}
    for note in fresh_report.notifications:
        assert _result_payload(note.result) == _result_payload(
            by_name[note.subscription]
        )


def test_overflow_mid_stream_keeps_lockstep():
    """Same overflow, but with the churn interleaved between refinement
    ticks on both twins: the monitor whose log holds 8 mutations (and must
    fall back to wholesale re-estimation exactly once) stays in lockstep
    with the twin that falls back on every mutated tick."""
    db_inc, db_full = _refinement_db(), _refinement_db()
    inc = _monitor(db_inc, log_limit=8)
    full = _monitor(db_full, log_limit=0)
    script_inc = _refinement_script(db_inc)
    script_full = _refinement_script(db_full)
    overflowed = 0
    for i, (events_inc, events_full) in enumerate(zip(script_inc, script_full)):
        if i == 3:  # out-of-band churn past the log bound on both twins
            for twin in (db_inc, db_full):
                for j in range(5):
                    twin.add_object(f"tmp{j}", [(0, 0)])
                    twin.remove_object(f"tmp{j}")
        r_inc = inc.tick(events_inc)
        r_full = full.tick(events_full)
        overflowed += r_inc.full_invalidation
        _assert_same_answers(r_inc, r_full)
    assert overflowed == 1  # the scenario actually exercised the fallback


def test_interleaved_standalone_queries_keep_lockstep():
    """Standalone queries (fresh epochs) between ticks do not disturb the
    held monitoring epoch, whichever way the engine invalidates."""
    db_inc, db_full = _twin_db(), _twin_db()
    inc = _monitor(db_inc)
    full = _monitor(db_full, log_limit=0)
    q = Query.from_point([1.0, 1.0])
    script_inc = _event_script(db_inc, np.random.default_rng(5))
    script_full = _event_script(db_full, np.random.default_rng(5))
    for events_inc, events_full in zip(script_inc, script_full):
        r_inc = inc.tick(events_inc)
        r_full = full.tick(events_full)
        # One-off queries advance the epoch; the next tick must rewind.
        inc.engine.forall_nn(q, [3, 4])
        full.engine.forall_nn(q, [3, 4])
        for a, b in zip(r_inc.notifications, r_full.notifications):
            assert _result_payload(a.result) == _result_payload(b.result)
