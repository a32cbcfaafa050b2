"""Certain trajectories and uncertain moving objects.

A :class:`Trajectory` is a realized sequence of states over a contiguous
time range (a "possible world" of one object); an :class:`UncertainObject`
is what the database stores — observations plus the a-priori chain — from
which the a-posteriori model is derived lazily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..markov.adaptation import AdaptedModel, adapt_many, adapt_model
from ..markov.chain import TransitionModel
from ..markov.compiled import CompiledModel
from .diamonds import Diamond, compute_diamonds, compute_diamonds_many
from .observation import Observation, ObservationSet

__all__ = ["Trajectory", "UncertainObject", "adapt_objects", "derive_diamonds"]


@dataclass(frozen=True)
class Trajectory:
    """A certain trajectory: one state per tic starting at ``t_start``."""

    t_start: int
    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.intp)
        if states.ndim != 1 or states.size == 0:
            raise ValueError("states must be a non-empty 1-d array")
        object.__setattr__(self, "states", states)

    @property
    def t_end(self) -> int:
        return self.t_start + self.states.size - 1

    def covers(self, t: int) -> bool:
        return self.t_start <= t <= self.t_end

    def state_at(self, t: int) -> int:
        if not self.covers(t):
            raise KeyError(f"time {t} outside trajectory [{self.t_start}, {self.t_end}]")
        return int(self.states[t - self.t_start])

    def states_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`state_at` over a sorted array of covered times."""
        times = np.asarray(times, dtype=np.intp)
        if times.size and (times.min() < self.t_start or times.max() > self.t_end):
            raise KeyError("some times fall outside the trajectory span")
        return self.states[times - self.t_start]

    def __len__(self) -> int:
        return int(self.states.size)

    def observe_every(self, interval: int, phase: int = 0) -> ObservationSet:
        """Thin this trajectory into observations every ``interval`` tics.

        The first and last positions are always kept, matching how the
        paper converts certain taxi trajectories into uncertain ones (every
        l-th GPS measurement becomes an observation, the rest is ground
        truth).
        """
        if interval < 1:
            raise ValueError("interval must be >= 1")
        idx = set(range(phase % interval, self.states.size, interval))
        idx.add(0)
        idx.add(self.states.size - 1)
        return ObservationSet(
            [(self.t_start + i, int(self.states[i])) for i in sorted(idx)]
        )


class UncertainObject:
    """An uncertain moving object: id, observations, a-priori chain.

    The a-posteriori :class:`AdaptedModel` (Algorithm 2) and the
    reachability diamonds are computed on first use and cached; experiment
    harnesses time the former explicitly as the paper's "TS" series.  An
    object is an immutable value holder: a new fix yields a successor
    (:meth:`with_observation`) that re-derives only the inter-observation
    segments the fix touched and shares the rest with its predecessor.
    """

    def __init__(
        self,
        object_id: str,
        observations: ObservationSet,
        chain: TransitionModel,
        ground_truth: Trajectory | None = None,
        extend_to: int | None = None,
    ) -> None:
        self.object_id = str(object_id)
        self.observations = observations
        self.chain = chain
        #: Held-out full trajectory, retained by synthetic generators for
        #: effectiveness experiments (Fig. 11/12); ``None`` for real data.
        self.ground_truth = ground_truth
        #: Optional extension of the uncertain span past the last
        #: observation (a-priori propagation; see Example 1 of the paper).
        self.extend_to = int(extend_to) if extend_to is not None else None
        if self.extend_to is not None and self.extend_to < observations.last.time:
            raise ValueError("extend_to must not precede the last observation")
        self._adapted: AdaptedModel | None = None
        self._diamonds: list[Diamond] | None = None
        # Derived state of the predecessor this object replaced, consulted
        # (and released) by the first derivation here.
        self._donor: AdaptedModel | None = None
        self._diamond_donor: list[Diamond] = []

    def with_observation(self, time: int, state: int) -> "UncertainObject":
        """The successor object holding one more fix.

        Observations are certain, so every inter-observation segment's
        derived state — ``F(t)``, marginals, compiled layers, diamonds and
        their MBRs — is a pure function of its two bounding fixes and the
        chain.  The successor therefore inherits this object's adapted
        model and diamonds as donors and re-derives only the segments the
        fix splits, appends or prepends (and a superseded ``extend_to``
        cone); everything else is carried over byte-identically.  A
        duplicate observation time raises.
        """
        observations = ObservationSet(
            list(self.observations) + [Observation(time, state)]
        )
        extend_to = self.extend_to
        if extend_to is not None and extend_to < observations.last.time:
            extend_to = None  # the new fix supersedes the extrapolation
        successor = UncertainObject(
            self.object_id,
            observations,
            self.chain,
            ground_truth=self.ground_truth,
            extend_to=extend_to,
        )
        # An object mutated again before it was ever adapted passes on the
        # donor it received itself.
        successor._donor = self._adapted or self._donor
        successor._diamond_donor = self._diamonds or self._diamond_donor
        return successor

    # ------------------------------------------------------------------
    @property
    def t_first(self) -> int:
        return self.observations.first.time

    @property
    def t_last(self) -> int:
        last = self.observations.last.time
        if self.extend_to is not None:
            return max(last, self.extend_to)
        return last

    def alive_during(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask of which query times fall inside the object's span."""
        times = np.asarray(times, dtype=np.intp)
        return (times >= self.t_first) & (times <= self.t_last)

    def covers_all(self, times: np.ndarray) -> bool:
        return bool(np.all(self.alive_during(times)))

    def covers_any(self, times: np.ndarray) -> bool:
        return bool(np.any(self.alive_during(times)))

    # ------------------------------------------------------------------
    @property
    def adapted(self) -> AdaptedModel:
        """The cached a-posteriori model (computing it on first access)."""
        if self._adapted is None:
            # A contradicting fix raises here on every access: the donor
            # stays untouched and nothing half-built is kept.
            self._adapted = adapt_model(
                self.chain,
                self.observations.as_pairs(),
                extend_to=self.extend_to,
                donor=self._donor,
            )
            self._donor = None
        return self._adapted

    @property
    def diamonds(self) -> list[Diamond]:
        """The cached reachability diamonds (computing them on first access)."""
        if self._diamonds is None:
            self._diamonds = compute_diamonds(
                self.chain,
                self.observations,
                extend_to=self.extend_to,
                donor=self._diamond_donor,
            )
            self._diamond_donor = []
        return self._diamonds

    @property
    def compiled(self) -> CompiledModel:
        """The flattened sampling view of the a-posteriori model."""
        return self.adapted.compiled

    def is_adapted(self) -> bool:
        return self._adapted is not None

    def invalidate_adaptation(self) -> None:
        """Drop the cached model (after swapping chains in ablations).

        Inherited donors go with it — they were derived under the old chain.
        """
        self._adapted = None
        self._donor = None
        self._diamond_donor = []

    def sample_states(
        self,
        times: np.ndarray,
        n: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample posterior states at the requested (sorted) times.

        All times must lie within the object's span; the returned array has
        shape ``(n, len(times))``.
        """
        times = np.asarray(times, dtype=np.intp)
        if times.size == 0:
            return np.empty((n, 0), dtype=np.intp)
        if not self.covers_all(times):
            raise KeyError(
                f"object {self.object_id} does not cover all of {times.tolist()}"
            )
        paths = self.adapted.sample_paths(rng, n, int(times.min()), int(times.max()))
        # A row gather of the sampler's tic-major buffer: the world axis
        # stays the contiguous one (``paths[:, cols]`` need not keep it).
        return paths.T[times - times.min()].T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UncertainObject(id={self.object_id!r}, "
            f"span=[{self.t_first}, {self.t_last}], n_obs={len(self.observations)})"
        )


def adapt_objects(objects: list[UncertainObject]) -> None:
    """Derive the a-posteriori models the given objects still lack, together.

    One :func:`~repro.markov.adaptation.adapt_many` call: every segment any
    of them has to derive runs in the same batched sweep.  An object whose
    observations contradict its chain is left as it was — its own
    ``.adapted`` raises, on every access, exactly as it would have alone.
    """
    pending = [obj for obj in objects if not obj.is_adapted()]
    models = adapt_many(
        [
            (obj.chain, obj.observations.as_pairs(), obj.extend_to, obj._donor)
            for obj in pending
        ]
    )
    for obj, model in zip(pending, models):
        if isinstance(model, AdaptedModel):
            obj._adapted, obj._donor = model, None


def derive_diamonds(objects: list[UncertainObject]) -> list[list[Diamond] | ValueError]:
    """Every given object's diamonds, those it still lacks derived together.

    One :func:`~repro.trajectory.diamonds.compute_diamonds_many` call: the
    segments all of them have to derive share its labelled walks.  Returns
    one entry per object: its diamonds, or — for an object whose
    observations contradict its chain, left as it was — the ``ValueError``
    its own ``.diamonds`` raises.
    """
    pending = [obj for obj in objects if obj._diamonds is None]
    derived = compute_diamonds_many(
        [
            (obj.chain, obj.observations, obj.extend_to, obj._diamond_donor)
            for obj in pending
        ]
    )
    failed = {}
    for obj, diamonds in zip(pending, derived):
        if isinstance(diamonds, ValueError):
            failed[id(obj)] = diamonds
        else:
            obj._diamonds, obj._diamond_donor = diamonds, []
    return [failed.get(id(obj), obj._diamonds) for obj in objects]
