"""Ingestion-front tests: event validation, dirty sets, version parity."""

import numpy as np
import pytest

from repro.markov.adaptation import ObservationContradictionError
from repro.stream import (
    AddObject,
    AddObservation,
    ObservationStream,
    RemoveObject,
)
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain, make_line_space

pytestmark = pytest.mark.stream


@pytest.fixture
def db():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    db.add_object("b", [(0, 1), (4, 3)])
    return db


class TestApply:
    def test_mixed_batch_applies_in_order(self, db):
        stream = ObservationStream(db)
        result = stream.apply(
            [
                AddObservation("a", 2, 1),
                AddObject("c", [(1, 0), (3, 1)]),
                RemoveObject("b"),
            ]
        )
        assert result.applied == 3
        assert (result.added, result.observed, result.removed) == (1, 1, 1)
        assert result.dirty == {"a", "b", "c"}
        assert result.version_after == result.version_before + 3
        assert "c" in db and "b" not in db
        assert db.get("a").observations.state_at(2) == 1
        assert result.latest_time == 3  # c's last observation
        assert stream.events_applied == 3 and stream.batches == 1

    def test_dirty_matches_changed_since(self, db):
        stream = ObservationStream(db)
        result = stream.apply(
            [AddObservation("a", 1, 0), AddObject("c", [(0, 2)])]
        )
        assert db.changed_since(result.version_before) == set(result.dirty)

    def test_empty_batch(self, db):
        stream = ObservationStream(db)
        result = stream.apply([])
        assert not result
        assert result.dirty == frozenset()
        assert result.latest_time is None
        assert db.version == result.version_before == result.version_after

    def test_intra_batch_add_then_observe(self, db):
        stream = ObservationStream(db)
        result = stream.apply(
            [AddObject("c", [(0, 0)]), AddObservation("c", 2, 1)]
        )
        assert result.observed == 1
        assert db.get("c").observations.state_at(2) == 1

    def test_remove_then_readd(self, db):
        stream = ObservationStream(db)
        result = stream.apply([RemoveObject("a"), AddObject("a", [(0, 3)])])
        assert result.dirty == {"a"}
        assert db.get("a").observations.state_at(0) == 3


class TestValidation:
    """Bad batches are rejected up front — the database stays untouched."""

    def test_unknown_observation_target_rejected_atomically(self, db):
        stream = ObservationStream(db)
        v = db.version
        with pytest.raises(KeyError, match="event 1.*ghost"):
            stream.apply([AddObservation("a", 2, 1), AddObservation("ghost", 2, 1)])
        assert db.version == v  # nothing applied
        assert db.get("a").observations.state_at(2) is None
        assert stream.events_applied == 0

    def test_duplicate_object_rejected(self, db):
        with pytest.raises(ValueError, match="already exists"):
            ObservationStream(db).apply([AddObject("a", [(0, 0)])])

    def test_duplicate_time_within_batch_rejected(self, db):
        v = db.version
        with pytest.raises(ValueError, match="already observed"):
            ObservationStream(db).apply(
                [AddObservation("a", 2, 1), AddObservation("a", 2, 2)]
            )
        assert db.version == v

    def test_duplicate_time_against_database_rejected(self, db):
        with pytest.raises(ValueError, match="already observed"):
            ObservationStream(db).apply([AddObservation("a", 4, 2)])

    def test_observe_after_remove_rejected(self, db):
        with pytest.raises(KeyError, match="event 1"):
            ObservationStream(db).apply(
                [RemoveObject("a"), AddObservation("a", 2, 1)]
            )

    def test_unknown_removal_rejected(self, db):
        with pytest.raises(KeyError, match="ghost"):
            ObservationStream(db).apply([RemoveObject("ghost")])

    def test_non_event_rejected(self, db):
        with pytest.raises(TypeError, match="event 0"):
            ObservationStream(db).apply([("a", 2, 1)])

    def test_negative_state_rejected_atomically(self, db):
        v = db.version
        with pytest.raises(ValueError, match="event 1.*non-negative"):
            ObservationStream(db).apply(
                [AddObservation("a", 2, 1), AddObservation("b", 3, -1)]
            )
        assert db.version == v  # first event was not half-applied

    def test_mismatched_chain_rejected_atomically(self, db):
        from tests.conftest import make_drift_chain

        v = db.version
        with pytest.raises(ValueError, match="event 1.*6 states"):
            ObservationStream(db).apply(
                [
                    AddObservation("a", 2, 1),
                    AddObject("c", [(0, 0)], chain=make_drift_chain(6)),
                ]
            )
        assert db.version == v

    def test_out_of_range_state_rejected_and_the_monitor_keeps_ticking(self):
        """A state id past the space is refused at validation, naming the
        event; nothing lands, so the next tick runs (it used to land and
        wedge every later tick on an ``IndexError``)."""
        from repro import ContinuousMonitor, Query, QueryEngine, QueryRequest

        db = TrajectoryDatabase(make_line_space(12), make_drift_chain(12))
        db.add_object("a", [(0, 0), (8, 5)])
        db.add_object("b", [(0, 2), (8, 8)])
        monitor = ContinuousMonitor(QueryEngine(db, n_samples=32, seed=1))
        monitor.subscribe(
            QueryRequest(Query.from_point([3.0, 0.0]), tuple(range(1, 8)), "forall", 0.1)
        )
        monitor.tick()
        v = db.version
        cases = [
            ([AddObservation("b", 3, 3), AddObservation("a", 5, 99)],
             r"event 1 \(object 'a'\): state 99 at time 5 .* 12 states"),
            ([AddObject("c", [(0, 1), (4, 12)])],
             r"event 0 \(object 'c'\): state 12 at time 4"),
        ]
        for events, pattern in cases:
            with pytest.raises(ValueError, match=pattern):
                monitor.tick(events)
            assert db.version == v
        monitor.tick()

    def test_direct_api_rejects_out_of_range_states(self, db):
        v = db.version
        with pytest.raises(ValueError, match=r"object 'a': state 4 at time 2"):
            db.add_observation("a", 2, 4)
        with pytest.raises(ValueError, match=r"object 'c': state 7 at time 0"):
            db.add_object("c", [(0, 7)])
        assert db.version == v and "c" not in db

    def test_bad_extend_to_rejected_atomically(self, db):
        v = db.version
        with pytest.raises(ValueError, match="event 0.*extend_to"):
            ObservationStream(db).apply([AddObject("c", [(0, 0), (4, 2)], extend_to=2)])
        assert db.version == v


class TestErrorAttribution:
    """Every rejection names the offending batch index AND object id.

    A routed (sharded) ingest fans sub-batches to shard workers; a failure
    report is only actionable if it pinpoints the event without replaying
    the batch, so both halves of the address are part of the contract.
    """

    def test_validation_errors_name_index_and_object(self, db):
        stream = ObservationStream(db)
        cases = [
            ([AddObservation("a", 2, 1), AddObservation("ghost", 3, 1)],
             KeyError, r"event 1.*'ghost'"),
            ([AddObject("a", [(0, 0)])],
             ValueError, r"event 0.*'a' already exists"),
            ([AddObservation("a", 2, 1), AddObservation("b", 3, -1)],
             ValueError, r"event 1 \(object 'b'\)"),
            ([AddObservation("b", 2, 1),
              AddObject("c", [(0, 0), (0, 1)])],
             ValueError, r"event 1 \(object 'c'\)"),
            ([AddObject("c", [(0, 0)], extend_to=-3)],
             ValueError, r"event 0 \(object 'c'\).*extend_to"),
            ([AddObservation("a", 2, 1), AddObservation("a", 2, 3)],
             ValueError, r"event 1.*'a' already observed at time 2"),
        ]
        for events, exc_type, pattern in cases:
            v = db.version
            with pytest.raises(exc_type, match=pattern):
                stream.apply(events)
            assert db.version == v, events

    def test_apply_stage_errors_name_index_and_object(self, db, monkeypatch):
        """Lazy (post-validation) failures get the same address, with the
        original exception type and message preserved."""
        stream = ObservationStream(db)

        def boom(object_id, *args, **kwargs):
            raise RuntimeError("simulated storage failure")

        monkeypatch.setattr(db, "add_observation", boom)
        with pytest.raises(
            RuntimeError,
            match=r"event 1 \(object 'b'\): simulated storage failure",
        ):
            stream.apply([RemoveObject("a"), AddObservation("b", 2, 1)])

    @pytest.mark.parametrize(
        "event, pattern",
        [
            (AddObservation("a", 2.5, 1), r"event 1 \(object 'a'\): time must be an integer, got 2.5"),
            (AddObservation("a", float("inf"), 1), r"event 1 \(object 'a'\): time .* got inf"),
            (AddObservation("a", 2, float("nan")), r"event 1 \(object 'a'\): state .* got nan"),
            (AddObject("c", [(0.5, 0), (3.9, 2)]), r"event 1 \(object 'c'\): time .* got 0.5"),
        ],
        ids=["fractional-time", "infinite-time", "nan-state", "fractional-object"],
    )
    def test_hostile_observation_values_are_named_not_truncated(self, db, event, pattern):
        stream = ObservationStream(db)
        v = db.version
        for check in (stream.validate, stream.apply):
            with pytest.raises(ValueError, match=pattern):
                check([RemoveObject("b"), event])
        assert db.version == v and "b" in db and "c" not in db
        assert db.get("a").observations.times == (0, 4)

    def test_direct_api_rejects_fractional_observations(self, db):
        v = db.version
        with pytest.raises(ValueError, match="time must be an integer"):
            db.add_observation("a", 2.5, 1)
        with pytest.raises(ValueError, match="state must be an integer"):
            db.add_object("c", [(0, 0.5), (3, 2)])
        assert db.version == v

    @pytest.mark.parametrize(
        "event, pattern",
        [
            (AddObservation("a", 2, True), r"event 1 \(object 'a'\): state must be an integer, got True"),
            (AddObservation("a", True, 1), r"event 1 \(object 'a'\): time must be an integer, got True"),
            (AddObject("c", [(0, False), (3, 2)]), r"event 1 \(object 'c'\): state .* got False"),
            (AddObject("c", [(False, 0), (3, 2)]), r"event 1 \(object 'c'\): time .* got False"),
        ],
        ids=["observation-state", "observation-time", "object-state", "object-time"],
    )
    def test_bool_times_and_states_are_type_errors(self, db, event, pattern):
        """``operator.index(True)`` is 1: a bool must not land as state 1
        or time 1."""
        stream = ObservationStream(db)
        v = db.version
        for check in (stream.validate, stream.apply):
            with pytest.raises(TypeError, match=pattern):
                check([RemoveObject("b"), event])
        assert db.version == v and "b" in db and "c" not in db
        assert db.get("a").observations.as_pairs() == [(0, 0), (4, 2)]

    def test_direct_api_rejects_bool_observations(self, db):
        v = db.version
        with pytest.raises(TypeError, match="state must be an integer, got True"):
            db.add_observation("a", 2, True)
        with pytest.raises(TypeError, match="time must be an integer, got True"):
            db.add_observation("a", True, 1)
        with pytest.raises(TypeError, match="state must be an integer, got False"):
            db.add_object("c", [(0, False), (3, 2)])
        with pytest.raises(TypeError, match="time must be an integer, got True"):
            db.add_object("c", [(True, 0), (3, 2)])
        assert db.version == v and "c" not in db

    def test_integral_floats_and_numpy_integers_land_as_integers(self, db):
        ObservationStream(db).apply(
            [AddObservation("a", 2.0, np.int64(1)), AddObject("c", [(0.0, 0), (np.int32(3), 2.0)])]
        )
        assert db.get("a").observations.as_pairs() == [(0, 0), (2, 1), (4, 2)]
        assert db.get("c").observations.as_pairs() == [(0, 0), (3, 2)]

    def test_public_validate_is_side_effect_free(self, db):
        stream = ObservationStream(db)
        good = [AddObservation("a", 2, 1), RemoveObject("b")]
        bad = [AddObservation("a", 2, 1), AddObservation("a", 2, 2)]
        v = db.version
        assert [[seg.key for seg in records] for records in stream.validate(good)] == [
            [(0, 0, 2, 1), (2, 1, 4, 2)], []
        ]
        with pytest.raises(ValueError, match="event 1"):
            stream.validate(bad)
        assert db.version == v and stream.events_applied == 0
        # The same instance still applies cleanly after validating.
        assert stream.apply(good).applied == 2


def _drift_db():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    db.add_object("b", [(0, 1), (4, 3)])
    return db


#: The three ways a fix the chain cannot join used to land and wedge every
#: later tick on an anonymous "empty diamond": (event, unreachable fix, from).
WEDGES = {
    "interior": (AddObservation("a", 2, 3), (2, 3), (0, 0)),
    "head-append": (AddObservation("a", 6, 0), (6, 0), (4, 2)),
    "new-object": (AddObject("c", [(0, 3), (2, 0)]), (2, 0), (0, 3)),
}


def _refusal(context, fix, source):
    """The pattern of the error refusing ``fix``, which ``source`` cannot reach."""
    return (
        rf"{context}: observation \(t={fix[0]}, state={fix[1]}\) is unreachable "
        rf"from observation \(t={source[0]}, state={source[1]}\)"
    )


def _event(index, object_id):
    return rf"event {index} \(object '{object_id}'\)"


def _monitor(db):
    from repro import ContinuousMonitor, Query, QueryEngine, QueryRequest

    monitor = ContinuousMonitor(QueryEngine(db, n_samples=32, seed=3))
    monitor.subscribe(QueryRequest(Query.from_point([1.0, 0.0]), (1, 2, 3), "forall", 0.1))
    monitor.subscribe(QueryRequest(Query.from_point([2.0, 0.0]), (2, 3, 4), "exists", 0.1))
    return monitor


def _payloads(report):
    from repro.stream.monitor import _result_payload

    return [(n.subscription, n.reason, _result_payload(n.result)) for n in report.notifications]


class TestContradictingFixesAreRefused:
    """A fix no positive-probability path joins to its neighbours is
    refused before anything lands — by ``validate`` against the object's
    observations as the batch leaves them, and by the direct API."""

    @pytest.mark.parametrize("shape", sorted(WEDGES))
    def test_refused_untouched_and_the_monitor_keeps_ticking(self, shape):
        event, fix, source = WEDGES[shape]
        db, twin = _drift_db(), _drift_db()
        monitor, clean = _monitor(db), _monitor(twin)
        assert _payloads(monitor.tick()) == _payloads(clean.tick())
        before = {oid: db.get(oid) for oid in db.object_ids}
        v = db.version
        for _ in range(2):  # refused again, never half-applied
            with pytest.raises(
                ObservationContradictionError,
                match=_refusal(_event(1, event.object_id), fix, source),
            ):
                monitor.tick([AddObservation("b", 5, 3), event])
            assert db.version == v
            assert {oid: db.get(oid) for oid in db.object_ids} == before
        good = [AddObservation("b", 5, 3), AddObservation("a", 2, 1)]
        for events in (good, [], [AddObject("c", [(1, 0), (3, 1)])]):
            assert _payloads(monitor.tick(events)) == _payloads(clean.tick(events))

    @pytest.mark.parametrize("shape", sorted(WEDGES))
    def test_direct_api_refuses_them(self, shape):
        event, fix, source = WEDGES[shape]
        db = _drift_db()
        v = db.version
        with pytest.raises(
            ObservationContradictionError,
            match=_refusal(f"object '{event.object_id}'", fix, source),
        ):
            if isinstance(event, AddObject):
                db.add_object(event.object_id, event.observations)
            else:
                db.add_observation(event.object_id, event.time, event.state)
        assert db.version == v and "c" not in db
        assert db.get("a").observations.as_pairs() == [(0, 0), (4, 2)]

    def test_checked_against_the_batch_not_the_database(self, db):
        stream = ObservationStream(db)
        v = db.version
        cases = [
            # An object the batch adds, then a fix its own fixes contradict.
            ([AddObject("c", [(0, 0), (4, 2)]), AddObservation("c", 2, 3)],
             _refusal(_event(1, "c"), (2, 3), (0, 0))),
            # Each fix joins the database's (0, 0) and (4, 2), not each other.
            ([AddObservation("a", 2, 2), AddObservation("a", 3, 1)],
             _refusal(_event(1, "a"), (3, 1), (2, 2))),
            # A removed and re-added id is checked against its new fixes.
            ([RemoveObject("a"), AddObject("a", [(0, 3)]), AddObservation("a", 2, 0)],
             _refusal(_event(2, "a"), (2, 0), (0, 3))),
        ]
        for events, pattern in cases:
            with pytest.raises(ObservationContradictionError, match=pattern):
                stream.apply(events)
            assert db.version == v, events
        result = stream.apply(
            [AddObject("c", [(0, 0), (4, 2)]), AddObservation("c", 2, 1), AddObservation("a", 3, 1)]
        )
        assert result.applied == 3
        assert db.get("c").observations.as_pairs() == [(0, 0), (2, 1), (4, 2)]

    def test_the_first_contradiction_is_named(self, db):
        stream = ObservationStream(db)
        v = db.version
        cases = [
            # The second of three segments fails.
            ([AddObject("c", [(0, 0), (2, 1), (3, 0), (5, 1)])],
             _refusal(_event(0, "c"), (3, 0), (2, 1))),
            # An earlier event's contradiction wins over a later duplicate time.
            ([AddObservation("a", 2, 3), AddObservation("b", 0, 1)],
             _refusal(_event(0, "a"), (2, 3), (0, 0))),
            ([AddObservation("b", 2, 1), AddObservation("a", 6, 0), AddObservation("a", 2, 3)],
             _refusal(_event(1, "a"), (6, 0), (4, 2))),
        ]
        for events, pattern in cases:
            with pytest.raises(ObservationContradictionError, match=pattern):
                stream.apply(events)
            assert db.version == v, events

    def test_time_varying_chains_walk_their_own_matrices(self):
        """Only one tic moves (t = 1 -> 2); every other tic stays put."""
        from scipy import sparse

        from repro.markov.chain import InhomogeneousMarkovChain

        move = np.eye(3, k=1)
        move[2, 2] = 1.0
        chain = InhomogeneousMarkovChain({1: sparse.csr_matrix(move)}, default=sparse.eye(3))
        db = TrajectoryDatabase(make_line_space(3), chain)
        db.add_object("a", [(0, 0), (3, 1), (6, 1)])
        for fixes, fix, source in (
            ([(0, 0), (3, 2)], (3, 2), (0, 0)),
            ([(0, 0), (3, 1), (6, 2)], (6, 2), (3, 1)),
            ([(2, 0), (4, 1)], (4, 1), (2, 0)),
        ):
            refusal = _refusal("object 'b'", fix, source)
            with pytest.raises(ObservationContradictionError, match=refusal):
                db.add_object("b", fixes)
        db.add_object("b", [(1, 0), (2, 1), (5, 1)])
        assert db.object_ids == ["a", "b"]

    @pytest.mark.serve
    def test_serve_coordinator_refuses_centrally(self):
        from repro.serve import ServeCoordinator

        single = _monitor(_drift_db())
        db = _drift_db()
        with ServeCoordinator(db, n_shards=2, seed=3, mode="inline", n_samples=32) as coord:
            for subscription in single.subscriptions:
                coord.subscribe(subscription.request, name=subscription.name)
            assert _payloads(coord.tick()) == _payloads(single.tick())
            workers = [coord.engine._transport.worker(shard) for shard in range(2)]
            held = [{oid: w.db.get(oid) for oid in w.db.object_ids} for w in workers]
            for event, fix, source in WEDGES.values():
                with pytest.raises(
                    ObservationContradictionError,
                    match=_refusal(_event(1, event.object_id), fix, source),
                ):
                    coord.tick([AddObservation("b", 5, 3), event])
                assert [{oid: w.db.get(oid) for oid in w.db.object_ids} for w in workers] == held
            good = [AddObservation("b", 5, 3), AddObject("c", [(1, 0), (3, 1)])]
            assert _payloads(coord.tick(good)) == _payloads(single.tick(good))
            for w in workers:
                for oid in w.db.object_ids:
                    assert w.db.get(oid).observations.as_pairs() == (
                        db.get(oid).observations.as_pairs()
                    )
            assert sorted(oid for w in workers for oid in w.db.object_ids) == db.object_ids


class TestDatabaseMutationLog:
    def test_object_version_advances_per_mutation(self, db):
        va = db.object_version("a")
        db.add_observation("a", 2, 1)
        assert db.object_version("a") == db.version > va
        assert db.object_version("b") < db.object_version("a")
        with pytest.raises(KeyError, match="unknown object"):
            db.object_version("ghost")

    def test_removed_object_loses_its_counter(self, db):
        db.remove_object("b")
        with pytest.raises(KeyError, match="unknown object"):
            db.object_version("b")

    def test_changed_since_exact_and_bounded(self, db):
        v0 = db.version
        db.add_observation("a", 1, 0)
        db.add_object("c", [(0, 2)])
        db.remove_object("b")
        assert db.changed_since(v0) == {"a", "b", "c"}
        assert db.changed_since(db.version) == set()
        with pytest.raises(ValueError, match="ahead"):
            db.changed_since(db.version + 1)

    def test_changed_since_none_past_log_limit(self):
        db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
        db.add_object("a", [(0, 0)])
        v0 = db.version
        db.MUTATION_LOG_LIMIT = 8  # shrink for the test
        for t in range(1, 12):
            db.add_observation("a", t, 0)
        assert db.changed_since(v0) is None  # fell off the log
        assert db.changed_since(db.version - 3) == {"a"}  # still covered
