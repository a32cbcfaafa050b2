"""Observations: the certain (time, state) anchor points of uncertain objects.

Section 3.1: for each object ``o`` the database stores a time-sorted set of
observations ``Θ^o = {⟨t_i, θ_i⟩}``; observation locations are certain while
anything between observations is uncertain.
"""

from __future__ import annotations

import math
import numbers
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Observation", "ObservationSet", "as_integer"]


def as_integer(name: str, value) -> int:
    """``value`` as an ``int``: integers (numpy's too) and integral finite
    floats.  A bool is refused (``TypeError``): ``operator.index`` would
    land ``True`` as 1 — a time or state nobody meant."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        real = isinstance(value, numbers.Real)
        if real and math.isfinite(value) and float(value).is_integer():
            return int(value)
        raise (ValueError if real else TypeError)(
            f"{name} must be an integer, got {value!r}"
        ) from None


@dataclass(frozen=True, order=True)
class Observation:
    """One certain sighting: object was at ``state`` at ``time`` (integers:
    a fractional or non-finite value is refused, never truncated)."""

    time: int
    state: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", as_integer("time", self.time))
        object.__setattr__(self, "state", as_integer("state", self.state))
        if self.state < 0:
            raise ValueError(f"state must be a non-negative index, got {self.state}")


class ObservationSet:
    """A non-empty, strictly time-ordered collection of observations."""

    def __init__(self, observations: Sequence[Observation | tuple[int, int]]) -> None:
        parsed = [
            o if isinstance(o, Observation) else Observation(o[0], o[1])
            for o in observations
        ]
        if not parsed:
            raise ValueError("an object needs at least one observation")
        parsed.sort()
        times = [o.time for o in parsed]
        if len(set(times)) != len(times):
            raise ValueError("observation times must be distinct")
        self._observations = tuple(parsed)
        self._by_time = {o.time: o.state for o in parsed}

    # ------------------------------------------------------------------
    @property
    def first(self) -> Observation:
        return self._observations[0]

    @property
    def last(self) -> Observation:
        return self._observations[-1]

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(o.time for o in self._observations)

    @property
    def span(self) -> tuple[int, int]:
        """Closed time interval covered: (first time, last time)."""
        return self.first.time, self.last.time

    def state_at(self, time: int) -> int | None:
        """Observed state at ``time`` or ``None`` when unobserved."""
        return self._by_time.get(time)

    def as_pairs(self) -> list[tuple[int, int]]:
        """Plain ``(time, state)`` pairs (the adaptation algorithm's input)."""
        return [(o.time, o.state) for o in self._observations]

    def segments(self) -> Iterator[tuple[Observation, Observation]]:
        """Consecutive observation pairs — one uncertainty diamond each."""
        yield from zip(self._observations, self._observations[1:])

    def segments_with(self, fix: Observation) -> list[tuple[Observation, Observation]]:
        """The segments (at most two) a new ``fix`` at an unobserved time
        would form with its neighbours here."""
        i = bisect_left(self._observations, fix)
        earlier = [(self._observations[i - 1], fix)] if i else []
        return earlier + [(fix, o) for o in self._observations[i : i + 1]]

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._observations)

    def __len__(self) -> int:
        return len(self._observations)

    def __getitem__(self, idx: int) -> Observation:
        return self._observations[idx]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.span
        return f"ObservationSet(n={len(self)}, span=[{lo}, {hi}])"
