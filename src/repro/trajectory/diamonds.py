"""Reachability diamonds ("beads") between consecutive observations.

Between two observations ``(t_i, θ_i)`` and ``(t_{i+1}, θ_{i+1})`` the set of
possible states at time ``t`` is the intersection of what is forward
reachable from ``θ_i`` in ``t - t_i`` steps and backward reachable from
``θ_{i+1}`` in ``t_{i+1} - t`` steps.  These per-tic sets are the exact
supports the UST-tree approximates with minimum bounding rectangles
(Section 6, Example 2), and the support of the "uniform" ablation (U) in
Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..markov.chain import TransitionModel
from ..spatial.geometry import Rect
from ..statespace.base import StateSpace
from .observation import ObservationSet

__all__ = ["Diamond", "compute_diamonds", "reachable_states"]


@dataclass
class Diamond:
    """Possible (time, state) pairs between two consecutive observations."""

    t_start: int
    t_end: int
    #: ``states_per_tic[k]`` = possible states at time ``t_start + k``.
    states_per_tic: list[np.ndarray]
    #: ``(t_start, state, t_end, state)`` of the bounding fixes (end state
    #: ``None`` for the open cone) — what :func:`compute_diamonds` matches
    #: a reusable diamond by; ``None`` on hand-built diamonds.
    key: tuple | None = field(default=None, repr=False, compare=False)
    #: Lazy per-tic MBRs (see :meth:`mbr_arrays`).  A diamond's reachable
    #: sets are immutable (a new fix replaces only the diamonds it splits or
    #: adds; the others live on in the object's next diamond list, caches
    #: included), so they are computed once.
    _mbr_arrays: tuple | None = field(default=None, repr=False, compare=False)
    #: Lazy (x, y, time) box (see :meth:`spatio_temporal_mbr`).
    _st_mbr: Rect | None = field(default=None, repr=False, compare=False)

    def states_at(self, t: int) -> np.ndarray:
        if not self.t_start <= t <= self.t_end:
            raise KeyError(f"time {t} outside diamond [{self.t_start}, {self.t_end}]")
        return self.states_per_tic[t - self.t_start]

    def all_states(self) -> np.ndarray:
        """Union of possible states over the whole segment."""
        return np.unique(np.concatenate(self.states_per_tic))

    def spatial_mbr(self, space: StateSpace) -> Rect:
        """2-d bounding rect of all reachable states (a UST-tree leaf key)."""
        return space.mbr_of(self.all_states())

    def spatio_temporal_mbr(self, space: StateSpace) -> Rect:
        """3-d box (x, y, time) — what the UST-tree actually indexes."""
        if self._st_mbr is None:
            spatial = self.spatial_mbr(space)
            self._st_mbr = Rect(
                spatial.lo + (float(self.t_start),),
                spatial.hi + (float(self.t_end),),
            )
        return self._st_mbr

    def mbr_at(self, t: int, space: StateSpace) -> Rect:
        """Per-tic bounding rect (the dashed rectangles of Example 2)."""
        self.states_at(t)  # range check
        lo, hi = self.mbr_arrays(space)
        return Rect(tuple(lo[t - self.t_start]), tuple(hi[t - self.t_start]))

    def mbr_arrays(self, space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
        """All per-tic MBRs as ``(lo, hi)`` arrays of shape ``(n_tics, d)``
        — row ``k`` bounds the states possible at ``t_start + k``; what the
        UST-tree's bound table is built from."""
        if self._mbr_arrays is None:
            coords = [space.coords_of(states) for states in self.states_per_tic]
            self._mbr_arrays = (
                np.asarray([c.min(axis=0) for c in coords]),
                np.asarray([c.max(axis=0) for c in coords]),
            )
        return self._mbr_arrays

    def width_at(self, t: int) -> int:
        return int(self.states_at(t).size)


def _frontier_step(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """States adjacent (per the CSR structure) to any state in ``frontier``.

    One step may advance several walks: in a (sorted) frontier holding
    entries past the state count ``n``, entry ``label * n + state`` is a
    state of walk ``label``, and its successors keep the label.
    """
    if frontier.size == 0:
        return frontier
    n = indptr.size - 1
    labels, states = np.divmod(frontier, n) if frontier[-1] >= n else (None, frontier)
    starts = indptr[states]
    counts = indptr[states + 1] - starts
    # Positions of the frontier rows' entries: each row's run start..end,
    # laid end to end.
    run_ends = np.cumsum(counts)
    positions = np.arange(run_ends[-1]) + np.repeat(starts - (run_ends - counts), counts)
    successors = indices[positions]
    if labels is not None:
        successors = successors + np.repeat(labels * n, counts)
    # Sort, then drop repeats: what ``np.unique`` returns, several times
    # faster than its hashing path at frontier sizes.
    successors.sort()
    keep = np.empty(successors.size, dtype=bool)
    keep[:1] = True
    np.not_equal(successors[1:], successors[:-1], out=keep[1:])
    return successors[keep]


def reachable_states(
    chain: TransitionModel,
    start_state: int,
    t_start: int,
    steps: int,
    backward: bool = False,
    positive: bool = False,
) -> list[np.ndarray]:
    """Per-step reachable sets from (or into) ``start_state``.

    Forward: item ``k`` holds states reachable in exactly ``k`` steps from
    ``start_state`` starting at ``t_start``.  Backward: item ``k`` holds the
    states from which ``start_state`` can be reached in exactly ``k`` steps
    arriving at ``t_start`` (useful for diamond intersection).  Steps
    follow the chain's stored structure, or with ``positive`` only its
    edges of positive probability (see :meth:`TransitionModel.adjacency`).
    A sorted array of labelled start entries walks several starts at once
    (see :func:`_frontier_step`).
    """
    out = [np.atleast_1d(np.asarray(start_state, dtype=np.intp))]
    for k in range(steps):
        t = t_start - k - 1 if backward else t_start + k
        out.append(_frontier_step(*chain.adjacency(t, backward, positive), out[-1]))
    return out


def _segment_diamond(
    chain: TransitionModel, t0: int, s0: int, t1: int, s1: int
) -> Diamond:
    """The diamond between the consecutive fixes ``(t0, s0)`` and ``(t1, s1)``."""
    gap = t1 - t0
    fwd = reachable_states(chain, s0, t0, gap, backward=False)
    bwd = reachable_states(chain, s1, t1, gap, backward=True)
    per_tic: list[np.ndarray] = []
    for k in range(gap + 1):
        states = np.intersect1d(fwd[k], bwd[gap - k], assume_unique=True)
        if states.size == 0:
            raise ValueError(
                f"empty diamond at t={t0 + k}: observations "
                f"({t0},{s0}) -> ({t1},{s1}) "
                "contradict the chain"
            )
        per_tic.append(states)
    return Diamond(t_start=t0, t_end=t1, states_per_tic=per_tic, key=(t0, s0, t1, s1))


def compute_diamonds(
    chain: TransitionModel,
    observations: ObservationSet,
    extend_to: int | None = None,
    donor: Sequence[Diamond] = (),
) -> list[Diamond]:
    """One diamond per inter-observation segment.

    With ``extend_to`` past the last observation, a final open "cone" of
    purely forward-reachable states covers the extension (no future
    observation bounds it).

    A diamond is a pure function of its two bounding fixes and the chain,
    so diamonds of ``donor`` — computed earlier under the same ``chain``
    object, typically for the object a new fix replaced — whose fixes are
    unchanged are returned as they are, MBR caches included; only the
    others are computed.

    Raises ``ValueError`` if a segment's intersection is empty at any tic —
    that means the observations contradict the chain's support (the same
    condition :func:`repro.markov.adaptation.adapt_model` detects).
    """
    carried = {d.key: d for d in donor if d.key is not None}
    diamonds: list[Diamond] = []
    for first, second in observations.segments():
        key = (first.time, first.state, second.time, second.state)
        diamonds.append(carried.get(key) or _segment_diamond(chain, *key))
    last = observations.last
    if extend_to is not None and extend_to > last.time:
        key = (last.time, last.state, int(extend_to), None)
        diamonds.append(
            carried.get(key)
            or Diamond(
                t_start=last.time,
                t_end=int(extend_to),
                states_per_tic=reachable_states(
                    chain, last.state, last.time, extend_to - last.time
                ),
                key=key,
            )
        )
    if not diamonds:
        # Single-observation object: a degenerate diamond pinning the point.
        obs = observations.first
        diamonds.append(
            Diamond(
                t_start=obs.time,
                t_end=obs.time,
                states_per_tic=[np.asarray([obs.state], dtype=np.intp)],
            )
        )
    return diamonds
