"""The uncertain trajectory database ``D``.

Holds the shared state space, the default a-priori chain and every
:class:`~repro.trajectory.trajectory.UncertainObject`; provides diamond
caching and the hooks the UST-tree and the query engine build on.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..markov import native as native_tier
from ..markov.adaptation import ObservationContradictionError, Segment, derive_segments
from ..markov.chain import TransitionModel
from ..statespace.base import StateSpace
from .diamonds import Diamond
from .observation import Observation, ObservationSet
from .trajectory import Trajectory, UncertainObject

__all__ = ["TrajectoryDatabase"]


class TrajectoryDatabase:
    """A database of uncertain moving objects over one state space.

    Parameters
    ----------
    space:
        The discrete state space shared by all objects.
    chain:
        Default a-priori transition model; individual objects may override
        it (the paper allows per-object matrices, § 3.1, while the taxi
        experiments share a single learned chain).
    """

    #: Retained mutation-log length; :meth:`changed_since` answers exactly
    #: for any version still covered by the log and degrades to ``None``
    #: (the "rebuild everything" signal) for consumers further behind.
    MUTATION_LOG_LIMIT = 4096

    def __init__(self, space: StateSpace, chain: TransitionModel) -> None:
        if chain.n_states != space.n_states:
            raise ValueError(
                f"chain has {chain.n_states} states but space has {space.n_states}"
            )
        self.space = space
        self.chain = chain
        self._objects: dict[str, UncertainObject] = {}
        self._version = 0
        self._object_versions: dict[str, int] = {}
        #: Entries are ``(version, object_id, t_lo, t_hi)`` where
        #: ``[t_lo, t_hi]`` conservatively covers every time whose derived
        #: filter state (segments, per-tic MBRs, aliveness) the mutation
        #: could have changed.  ``±inf`` marks "unknown extent".
        self._mutation_log: list[tuple[int, str, float, float]] = []
        self._log_floor = 0  # mutations at versions <= floor fell off the log

    @property
    def version(self) -> int:
        """Mutation counter; derived caches compare against it for staleness.

        Both the query engine's UST-tree index and its per-object world
        cache key off this value: any mutation (object added or removed,
        observation ingested) invalidates sampled worlds and index pages on
        the next access, so queries never run against a stale view.
        Consumers that want to invalidate *selectively* instead of
        wholesale ask :meth:`changed_since` which objects a version delta
        touched.
        """
        return self._version

    def _bump_version(
        self, object_id: str, affected: tuple[float, float] | None = None
    ) -> None:
        """Record a mutation of one object, advancing the global version.

        The per-object counter and the bounded mutation log let derived
        structures (UST-tree, world cache, sampling arena) invalidate only
        the touched object instead of flushing wholesale.  ``affected`` is
        the conservative time range the mutation could have changed the
        object's *filter-relevant* state over (segments, per-tic MBRs,
        aliveness); ``None`` records an unbounded range.
        """
        self._version += 1
        if object_id in self._objects:  # removals keep no counter
            self._object_versions[object_id] = self._version
        lo, hi = affected if affected is not None else (-np.inf, np.inf)
        self._mutation_log.append((self._version, object_id, float(lo), float(hi)))
        overflow = len(self._mutation_log) - self.MUTATION_LOG_LIMIT
        if overflow > 0:
            self._log_floor = self._mutation_log[overflow - 1][0]
            del self._mutation_log[:overflow]

    def object_version(self, object_id: str) -> int:
        """The global version at this object's most recent mutation.

        Streaming consumers snapshot these counters to see *which* objects
        an ingest batch touched; the counter survives observation ingestion
        (it advances) but not removal (unknown ids raise, exactly like
        :meth:`get`).
        """
        try:
            return self._object_versions[str(object_id)]
        except KeyError:
            raise KeyError(f"unknown object {object_id!r}") from None

    def changed_since(self, version: int) -> set[str] | None:
        """Object ids mutated after the given global version.

        Returns the exact set of ids touched by any mutation in
        ``(version, self.version]`` — including ids that were removed (a
        consumer must drop its derived state for them) and ids added.
        Returns ``None`` when ``version`` predates the retained mutation
        log (bounded at :attr:`MUTATION_LOG_LIMIT` entries): the caller
        cannot invalidate selectively and must rebuild wholesale.

        Costs O(entries after ``version``): the log is sorted by version, so
        a bisection finds where they start.
        """
        entries = self._entries_after(version)
        return None if entries is None else {oid for _, oid, _, _ in entries}

    def _entries_after(self, version: int) -> list | None:
        """The mutation-log entries after ``version`` (``None`` when it
        predates the retained log)."""
        version = int(version)
        if version > self._version:
            raise ValueError(
                f"version {version} is ahead of the database ({self._version})"
            )
        if version < self._log_floor:
            return None
        log = self._mutation_log
        return log[bisect_right(log, version, key=itemgetter(0)) :]

    def changed_ranges_since(
        self, version: int
    ) -> dict[str, tuple[float, float]] | None:
        """Per-object affected time ranges for mutations after ``version``.

        The ranged form of :meth:`changed_since`: maps each touched object
        id to the hull ``[t_lo, t_hi]`` of the time ranges its mutations
        could have changed filter-relevant state over.  An observation
        ingested at ``t`` only reshapes the reachability diamonds between
        its neighboring observations, so a standing query whose times are
        disjoint from every dirty range — and whose influence set contains
        no dirty object — is provably unaffected without re-running the
        filter stage.  Same overflow contract as :meth:`changed_since`:
        ``None`` when ``version`` predates the retained log.
        """
        entries = self._entries_after(version)
        if entries is None:
            return None
        ranges: dict[str, tuple[float, float]] = {}
        for _, oid, lo, hi in entries:
            prev = ranges.get(oid)
            if prev is None:
                ranges[oid] = (lo, hi)
            else:
                ranges[oid] = (min(prev[0], lo), max(prev[1], hi))
        return ranges

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_object(
        self,
        object_id: str,
        observations: ObservationSet | Sequence[Observation | tuple[int, int]],
        chain: TransitionModel | None = None,
        ground_truth: Trajectory | None = None,
        extend_to: int | None = None,
        *,
        records: Sequence[Segment] | None = None,
    ) -> UncertainObject:
        """Register an object; returns the stored :class:`UncertainObject`.

        Observations :meth:`check_states` or :meth:`derive_or_refuse`
        refuses are never stored; the object keeps the derived records.
        ``records`` says the caller (the stream's ``validate``) ran both
        checks already, and hands in their records."""
        object_id = str(object_id)
        if object_id in self._objects:
            raise KeyError(f"object {object_id!r} already exists")
        if not isinstance(observations, ObservationSet):
            observations = ObservationSet(observations)
        own_chain = chain if chain is not None else self.chain
        if own_chain.n_states != self.space.n_states:
            raise ValueError("per-object chain must match the database state space")
        if records is None:
            context = f"object {object_id!r}"
            self.check_states(context, observations)
            records = self.derive_or_refuse(
                [(context, own_chain, *seg) for seg in observations.segments()]
            )
        obj = UncertainObject(
            object_id, observations, own_chain, ground_truth, extend_to, records
        )
        self._objects[object_id] = obj
        # A new object contributes filter state only over its own span.
        self._bump_version(object_id, affected=(obj.t_first, obj.t_last))
        return obj

    def check_states(self, context: str, observations: Iterable[Observation]) -> None:
        """Reject an observed state id the space has no cell for.

        The error names ``context`` (the object, or the stream event) and
        the observation's time and state.
        """
        n_states = self.space.n_states
        for o in observations:
            if o.state >= n_states:
                raise ValueError(
                    f"{context}: state {o.state} at time {o.time} is outside "
                    f"the database space's {n_states} states"
                )

    def derive_or_refuse(
        self, segments: Sequence[tuple[str, TransitionModel, Observation, Observation]]
    ) -> list[Segment]:
        """The records of the ``(context, chain, first, second)`` segments,
        in order, from one :func:`~repro.markov.adaptation.derive_segments`
        call — on the native tier where it loads, as a default engine's
        backend, else on numpy (the same bytes).  Algorithm 2 is the test
        for fixes that contradict the chain (§ 5.2.1): the first segment it
        refuses raises, naming ``context`` and both fixes."""
        derived = derive_segments(
            [(chain, (a.time, a.state, b.time, b.state)) for _, chain, a, b in segments],
            native=native_tier.available(),
        )
        for (context, _, first, second), segment in zip(segments, derived):
            if isinstance(segment, ValueError):
                raise ObservationContradictionError(
                    f"{context}: observation (t={second.time}, state={second.state}) "
                    f"is unreachable from observation (t={first.time}, "
                    f"state={first.state}) under the a-priori chain"
                )
        return derived

    def remove_object(self, object_id: str) -> None:
        """Drop an object (and its derived caches) from the database.

        Unknown ids raise the same descriptive :class:`KeyError` as
        :meth:`get`, and a failed removal leaves the version counter
        untouched — a no-op must not invalidate every derived cache.
        """
        object_id = str(object_id)
        if object_id not in self._objects:
            raise KeyError(f"unknown object {object_id!r}")
        gone = self._objects[object_id]
        del self._objects[object_id]
        self._object_versions.pop(object_id, None)
        # Removal withdraws the object's contributions over its old span.
        self._bump_version(object_id, affected=(gone.t_first, gone.t_last))

    def add_observation(
        self, object_id: str, time: int, state: int, *, records: Sequence[Segment] | None = None
    ) -> UncertainObject:
        """Ingest a new observation for an existing object.

        The stored object is replaced by its successor
        (:meth:`UncertainObject.with_observation`), which carries over the
        old object's records and diamonds of the segments the fix leaves
        intact, plus the records of those it forms, derived here; index
        structures detect the change through :attr:`version`.  A duplicate
        observation time raises (observations are certain — two conflicting
        certainties would be a data error), and so does a fix whose
        segments Algorithm 2 cannot derive (``records`` as in
        :meth:`add_object`).
        """
        old = self.get(object_id)
        if records is None:
            fix, context = Observation(time, state), f"object {old.object_id!r}"
            self.check_states(context, [fix])
            records = self.derive_or_refuse(
                [(context, old.chain, *seg) for seg in old.observations.segments_with(fix)]
            )
        replacement = old.with_observation(time, state, records)
        self._objects[old.object_id] = replacement
        # A fix at ``t`` reshapes only the diamonds between its neighboring
        # observations: segments outside ``[prev, next]`` recompute to
        # identical reachable sets (pure function of their own endpoint
        # observations and the unchanged a-priori chain).  Appends also
        # cover the superseded extrapolation cone via ``old.t_last``.
        time = int(time)
        obs_times = [o.time for o in old.observations]
        earlier = [t for t in obs_times if t < time]
        later = [t for t in obs_times if t > time]
        lo = float(max(earlier)) if earlier else float(min(time, old.t_first))
        hi = float(min(later)) if later else float(max(time, old.t_last))
        self._bump_version(old.object_id, affected=(lo, hi))
        return replacement

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: str) -> bool:
        return str(object_id) in self._objects

    def __iter__(self) -> Iterator[UncertainObject]:
        return iter(self._objects.values())

    def get(self, object_id: str) -> UncertainObject:
        try:
            return self._objects[str(object_id)]
        except KeyError:
            raise KeyError(f"unknown object {object_id!r}") from None

    @property
    def object_ids(self) -> list[str]:
        return list(self._objects)

    def objects_alive_at(self, t: int) -> list[UncertainObject]:
        """Objects whose observation span covers time ``t``."""
        return [o for o in self._objects.values() if o.t_first <= t <= o.t_last]

    def objects_overlapping(self, times: np.ndarray) -> list[UncertainObject]:
        """Objects alive at at least one of the given times."""
        return [o for o in self._objects.values() if o.covers_any(times)]

    def lifespans(
        self, object_ids: Sequence[str] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(t_first, t_last)`` arrays for the given ids (default: all).

        The columnar form of :attr:`UncertainObject.t_first` /
        :attr:`~UncertainObject.t_last` — the fused refinement path derives
        its per-object aliveness masks from these instead of looping.
        """
        objs = (
            list(self._objects.values())
            if object_ids is None
            else [self.get(oid) for oid in object_ids]
        )
        t_first = np.asarray([o.t_first for o in objs], dtype=np.intp)
        t_last = np.asarray([o.t_last for o in objs], dtype=np.intp)
        return t_first, t_last

    def alive_matrix(self, object_ids: Sequence[str], times: np.ndarray) -> np.ndarray:
        """Boolean ``(n_objects, n_times)`` lifespan mask.

        ``mask[i, j]`` is true when ``object_ids[i]`` covers ``times[j]``;
        one vectorized comparison instead of per-object
        :meth:`UncertainObject.alive_during` calls.
        """
        times = np.asarray(times, dtype=np.intp)
        t_first, t_last = self.lifespans(object_ids)
        return (times[None, :] >= t_first[:, None]) & (times[None, :] <= t_last[:, None])

    def time_horizon(self) -> tuple[int, int]:
        """Smallest interval covering every object's span."""
        if not self._objects:
            raise ValueError("empty database has no horizon")
        lo = min(o.t_first for o in self._objects.values())
        hi = max(o.t_last for o in self._objects.values())
        return lo, hi

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------
    def shard_view(
        self,
        shard: int,
        n_shards: int,
        owner=None,
    ) -> "TrajectoryDatabase":
        """A new database holding only the objects owned by one shard.

        ``owner`` maps an object id to its owning shard index (default: the
        serving layer's :func:`repro.serve.sharding.shard_of` content hash,
        so views built here agree with the shard router).  The view shares
        the state space, the a-priori chain and the ``UncertainObject``
        instances themselves (with the models and diamonds cached on them)
        — objects are immutable value holders, every mutation replaces the
        instance — but carries its own version counter and mutation log,
        so a shard worker's engine invalidates independently of the
        parent.
        """
        shard = int(shard)
        n_shards = int(n_shards)
        if not 0 <= shard < n_shards:
            raise ValueError(f"shard {shard} out of range for {n_shards} shards")
        if owner is None:
            from ..serve.sharding import shard_of as _shard_of

            def owner(oid: str) -> int:
                return _shard_of(oid, n_shards)

        view = TrajectoryDatabase(self.space, self.chain)
        for oid, obj in self._objects.items():
            if owner(oid) != shard:
                continue
            view._objects[oid] = obj
            view._bump_version(oid, affected=(obj.t_first, obj.t_last))
        return view

    # ------------------------------------------------------------------
    # diamonds
    # ------------------------------------------------------------------
    def diamonds_of(self, object_id: str) -> list[Diamond]:
        """Cached reachability diamonds of one object."""
        return self.get(object_id).diamonds

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrajectoryDatabase(n_objects={len(self)}, "
            f"n_states={self.space.n_states})"
        )
