"""Ingestion-front tests: event validation, dirty sets, version parity."""

import numpy as np
import pytest

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
        assert stream.validate(good) is None
        with pytest.raises(ValueError, match="event 1"):
            stream.validate(bad)
        assert db.version == v and stream.events_applied == 0
        # The same instance still applies cleanly after validating.
        assert stream.apply(good).applied == 2


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
