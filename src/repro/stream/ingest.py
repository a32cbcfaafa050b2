"""Incremental observation ingestion: typed event batches over a database.

The paper's data model is inherently streaming — objects keep producing
observations (GPS fixes, check-ins) while queries stay open — but a raw
:class:`~repro.trajectory.database.TrajectoryDatabase` only exposes one
mutation at a time.  :class:`ObservationStream` is the ingestion front of
the streaming subsystem: it applies a *batch* of typed events
(:class:`AddObject` / :class:`AddObservation` / :class:`RemoveObject`)
against the database and reports exactly which objects the batch touched
(the *dirty set*), so downstream consumers — the query engine's selective
invalidation, the :class:`~repro.stream.monitor.ContinuousMonitor` — can
react per object instead of rebuilding per event.

Events are validated *before* anything is applied (unknown ids, duplicate
ids, duplicate observation times, states outside the space, fixes the
transition model cannot join — including conflicts created inside the
batch itself), so none of these can leave the database half-ingested or
wedge a later tick.  A fix is accepted only if every closed segment it
forms derives under Algorithm 2, and the records go to the objects, so
each segment is derived once, here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from ..markov.adaptation import Segment
from ..markov.chain import TransitionModel
from ..trajectory.database import TrajectoryDatabase
from ..trajectory.observation import Observation, ObservationSet
from ..trajectory.trajectory import Trajectory

__all__ = [
    "AddObject",
    "AddObservation",
    "RemoveObject",
    "StreamEvent",
    "IngestResult",
    "ObservationStream",
]


@dataclass(frozen=True)
class AddObject:
    """A new object enters the stream with its initial observations."""

    object_id: str
    observations: ObservationSet | Sequence[Observation | tuple[int, int]]
    chain: TransitionModel | None = None
    ground_truth: Trajectory | None = None
    extend_to: int | None = None


@dataclass(frozen=True)
class AddObservation:
    """An existing object is sighted: certain ``state`` at ``time``."""

    object_id: str
    time: int
    state: int


@dataclass(frozen=True)
class RemoveObject:
    """An object leaves the stream (fleet vehicle retired, user opted out)."""

    object_id: str


#: Any event :meth:`ObservationStream.apply` accepts.
StreamEvent = Union[AddObject, AddObservation, RemoveObject]


@dataclass(frozen=True)
class IngestResult:
    """Outcome of one applied event batch.

    ``dirty`` names every object the batch touched — the per-object
    invalidation unit consumers key off; the counters split the batch by
    event kind.  ``version_before``/``version_after`` bracket the global
    database versions, so ``db.changed_since(version_before)`` reproduces
    ``dirty`` for as long as the mutation log covers the delta.
    """

    applied: int
    added: int
    observed: int
    removed: int
    dirty: frozenset[str]
    version_before: int
    version_after: int
    #: Largest observation time the batch ingested (``None`` for batches
    #: without observations) — the monitor's event-time clock source.
    latest_time: int | None = None

    def __bool__(self) -> bool:
        return self.applied > 0


@dataclass
class ObservationStream:
    """Applies event batches to a database, reporting per-object dirt.

    One stream per database; cumulative counters (``events_applied``,
    ``batches``) track ingestion volume across the stream's lifetime.
    """

    db: TrajectoryDatabase
    events_applied: int = 0
    batches: int = 0
    _known_events = (AddObject, AddObservation, RemoveObject)

    def apply(self, events: Iterable[StreamEvent]) -> IngestResult:
        """Validate, then apply a batch of events in order.

        Validation simulates the batch against the database's current
        membership (so an ``AddObservation`` may target an object the same
        batch adds, and a removed id may be re-added) and rejects the
        whole batch — database untouched — on unknown ids, duplicate ids
        or duplicate observation times.
        """
        events = list(events)
        records = self.validate(events)
        version_before = self.db.version
        added = observed = removed = 0
        dirty: set[str] = set()
        latest: int | None = None
        for i, event in enumerate(events):
            try:
                if isinstance(event, AddObject):
                    obj = self.db.add_object(
                        event.object_id,
                        event.observations,
                        chain=event.chain,
                        ground_truth=event.ground_truth,
                        extend_to=event.extend_to,
                        records=records[i],
                    )
                    added += 1
                    last = obj.observations.last.time
                    latest = last if latest is None else max(latest, last)
                    dirty.add(obj.object_id)
                elif isinstance(event, AddObservation):
                    self.db.add_observation(
                        event.object_id, event.time, event.state, records=records[i]
                    )
                    observed += 1
                    t = int(event.time)
                    latest = t if latest is None else max(latest, t)
                    dirty.add(str(event.object_id))
                else:
                    self.db.remove_object(event.object_id)
                    removed += 1
                    dirty.add(str(event.object_id))
            except Exception as exc:
                # Validation screens every error the database raises; should
                # one still surface, attribute it to the offending event so
                # a cross-shard ingest failure names the batch index and
                # object id (database partially applied: events before
                # ``i`` landed).  Rewriting ``args`` keeps the original
                # exception type and traceback intact.
                exc.args = (
                    f"event {i} (object {event.object_id!r}): {exc}",
                )
                raise
        self.events_applied += len(events)
        self.batches += 1
        return IngestResult(
            applied=len(events),
            added=added,
            observed=observed,
            removed=removed,
            dirty=frozenset(dirty),
            version_before=version_before,
            version_after=self.db.version,
            latest_time=latest,
        )

    def validate(self, events: Sequence[StreamEvent]) -> list[list[Segment]]:
        """Reject batches that would fail mid-application; else return, per
        event, the records of the closed segments it forms.

        Tracks membership and per-object observations as the batch would
        evolve them, so intra-batch conflicts (add-then-add, observe a time
        twice, observe after remove, a fix the chain cannot join to its
        neighbours as the batch leaves them) surface before any mutation
        happens; "cannot join" is Algorithm 2's verdict on the segments the
        batch forms (:meth:`TrajectoryDatabase.derive_or_refuse`).  Every
        rejection names both the offending event's batch index *and* its
        object id, so a failure in a routed (sharded) ingest is
        attributable without replaying the batch.  Public so a serving
        coordinator can validate a batch centrally once, then route
        per-shard sub-batches that are valid by construction — validation
        state is tracked per object id, and one object's events all route
        to one shard.
        """
        events = list(events)
        present = set(self.db.object_ids)
        # Each touched object's chain and observations as the batch leaves them.
        fixes: dict[str, tuple[TransitionModel, ObservationSet]] = {}

        def fixes_of(object_id: str) -> tuple[TransitionModel, ObservationSet]:
            if object_id not in fixes:
                obj = self.db.get(object_id)
                fixes[object_id] = obj.chain, obj.observations
            return fixes[object_id]

        # Every new segment, derived once at the end — or before the error of
        # a later event, so the first offending event is the one named.
        segments: list = []
        runs = [0]  # event i formed segments[runs[i]:runs[i + 1]]
        try:
            for i, event in enumerate(events):
                if not isinstance(event, self._known_events):
                    raise TypeError(
                        f"event {i}: expected AddObject/AddObservation/"
                        f"RemoveObject, got {type(event).__name__}"
                    )
                object_id = str(event.object_id)
                context = f"event {i} (object {object_id!r})"
                if isinstance(event, AddObject):
                    if object_id in present:
                        raise ValueError(
                            f"event {i}: object {object_id!r} already exists"
                        )
                    observations = event.observations
                    if not isinstance(observations, ObservationSet):
                        try:
                            observations = ObservationSet(observations)  # validates
                        except (TypeError, ValueError) as exc:
                            raise type(exc)(f"{context}: {exc}") from None
                    self.db.check_states(context, observations)
                    if (
                        event.chain is not None
                        and event.chain.n_states != self.db.space.n_states
                    ):
                        raise ValueError(
                            f"{context}: per-object chain has {event.chain.n_states} "
                            f"states but the database space has {self.db.space.n_states}"
                        )
                    if (
                        event.extend_to is not None
                        and event.extend_to < observations.last.time
                    ):
                        raise ValueError(
                            f"{context}: extend_to must not precede the last observation"
                        )
                    chain = event.chain if event.chain is not None else self.db.chain
                    segments += [(context, chain, *seg) for seg in observations.segments()]
                    present.add(object_id)
                    fixes[object_id] = chain, observations
                elif isinstance(event, AddObservation):
                    if object_id not in present:
                        raise KeyError(f"event {i}: unknown object {object_id!r}")
                    try:
                        observation = Observation(event.time, event.state)
                    except (TypeError, ValueError) as exc:
                        raise type(exc)(f"{context}: {exc}") from None
                    self.db.check_states(context, [observation])
                    chain, observed = fixes_of(object_id)
                    if observed.state_at(observation.time) is not None:
                        raise ValueError(
                            f"event {i}: object {object_id!r} already observed "
                            f"at time {observation.time}"
                        )
                    joined = observed.segments_with(observation)
                    segments += [(context, chain, *seg) for seg in joined]
                    fixes[object_id] = chain, ObservationSet([*observed, observation])
                else:
                    if object_id not in present:
                        raise KeyError(f"event {i}: unknown object {object_id!r}")
                    present.discard(object_id)
                    fixes.pop(object_id, None)
                runs.append(len(segments))
        except Exception:
            self.db.derive_or_refuse(segments)
            raise
        derived = self.db.derive_or_refuse(segments)
        return [derived[lo:hi] for lo, hi in zip(runs, runs[1:])]
