"""Reachability diamonds ("beads") between consecutive observations.

Between two observations ``(t_i, θ_i)`` and ``(t_{i+1}, θ_{i+1})`` the set of
possible states at time ``t`` is the intersection of what is forward
reachable from ``θ_i`` in ``t - t_i`` steps and backward reachable from
``θ_{i+1}`` in ``t_{i+1} - t`` steps.  These per-tic sets are the exact
supports the UST-tree approximates with minimum bounding rectangles
(Section 6, Example 2), and the support of the "uniform" ablation (U) in
Fig. 12.

Diamonds are derived in batches (:func:`compute_diamonds_many`;
:func:`compute_diamonds` is its one-object call): the segments of every
object that lack one are grouped by the matrices they walk, and each group
takes one labelled forward and one labelled backward walk, intersected tic
by tic on the labelled arrays.  A diamond keeps its per-tic sets as one flat
state array with offsets — :attr:`Diamond.states_per_tic` splits it on
first use — and :func:`bound_tics` turns many diamonds' sets into per-tic
MBR rows in one reduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..markov.chain import TransitionModel
from ..spatial.geometry import Rect
from ..statespace.base import StateSpace
from .observation import ObservationSet

__all__ = [
    "Diamond",
    "bound_tics",
    "compute_diamonds",
    "compute_diamonds_many",
    "reachable_states",
]


class Diamond:
    """Possible (time, state) pairs between two consecutive observations.

    The states possible at ``t_start + k`` are
    ``states[offsets[k]:offsets[k + 1]]``, sorted; hand-built diamonds pass
    ``states_per_tic`` instead.
    """

    def __init__(
        self,
        t_start: int,
        t_end: int,
        states_per_tic: Sequence[np.ndarray] | None = None,
        key: tuple | None = None,
        *,
        states: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
    ) -> None:
        if states_per_tic is not None:
            states_per_tic = [np.asarray(s, dtype=np.intp) for s in states_per_tic]
            offsets = np.cumsum([0] + [s.size for s in states_per_tic])
            states = np.concatenate(states_per_tic)
        self.t_start = int(t_start)
        self.t_end = int(t_end)
        self.states = states
        self.offsets = offsets
        #: ``(t_start, state, t_end, state)`` of the bounding fixes (end
        #: state ``None`` for the open cone) — what :func:`compute_diamonds`
        #: matches a reusable diamond by; ``None`` on hand-built diamonds.
        self.key = key
        self._per_tic = states_per_tic
        #: Per-tic MBRs (see :meth:`mbr_arrays`).  A diamond's reachable
        #: sets are immutable (a new fix replaces only the diamonds it
        #: splits or adds; the others live on in the object's next diamond
        #: list, caches included), so they are computed once.
        self._mbr_arrays: tuple | None = None
        self._st_mbr: Rect | None = None

    @property
    def states_per_tic(self) -> list[np.ndarray]:
        """``states_per_tic[k]`` = possible states at time ``t_start + k``."""
        if self._per_tic is None:
            self._per_tic = np.split(self.states, self.offsets[1:-1])
        return self._per_tic

    def states_at(self, t: int) -> np.ndarray:
        if not self.t_start <= t <= self.t_end:
            raise KeyError(f"time {t} outside diamond [{self.t_start}, {self.t_end}]")
        k = t - self.t_start
        return self.states[self.offsets[k] : self.offsets[k + 1]]

    def all_states(self) -> np.ndarray:
        """Union of possible states over the whole segment."""
        return np.unique(self.states)

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
        UST-tree's bound table is built from (:func:`bound_tics`)."""
        if self._mbr_arrays is None:
            bound_tics([self], space)
        return self._mbr_arrays

    def width_at(self, t: int) -> int:
        return int(self.states_at(t).size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Diamond(t_start={self.t_start}, t_end={self.t_end}, key={self.key})"


def bound_tics(diamonds: Sequence[Diamond], space: StateSpace) -> tuple[np.ndarray, np.ndarray]:
    """The per-tic MBR rows of the given diamonds, laid end to end as
    ``(lo, hi)`` arrays of shape ``(Σ n_tics, d)``.

    The diamonds lacking them (see :meth:`Diamond.mbr_arrays`) get theirs
    from one coordinate gather and one ``np.minimum.reduceat`` /
    ``np.maximum.reduceat`` over all their tics.
    """
    todo = [d for d in diamonds if d._mbr_arrays is None]
    if todo:
        sizes = np.asarray([d.states.size for d in todo])
        starts = np.concatenate(
            [d.offsets[:-1] + base for d, base in zip(todo, np.cumsum(sizes) - sizes)]
        )
        states = np.concatenate([d.states for d in todo])
        if np.diff(np.append(starts, states.size)).min() == 0:
            raise ValueError("cannot bound an empty state set")
        coords = space.coords_of(states)
        lo = np.minimum.reduceat(coords, starts, axis=0)
        hi = np.maximum.reduceat(coords, starts, axis=0)
        row = 0
        for d in todo:
            n_tics = d.offsets.size - 1
            d._mbr_arrays = (lo[row : row + n_tics], hi[row : row + n_tics])
            row += n_tics
    if not diamonds:
        empty = np.empty((0, space.ndim))
        return empty, empty
    return (
        np.concatenate([d._mbr_arrays[0] for d in diamonds]),
        np.concatenate([d._mbr_arrays[1] for d in diamonds]),
    )


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


def _members(values: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Which of ``values`` the sorted array ``pool`` holds."""
    if pool.size == 0:
        return np.zeros(values.size, dtype=bool)
    return pool[np.minimum(np.searchsorted(pool, values), pool.size - 1)] == values


def _walk(chain: TransitionModel, keys: list[tuple]) -> list[Diamond | ValueError]:
    """The diamonds of segments over the same matrices, in ``keys`` order.

    ``keys`` are ``(t0, s0, t1, s1)`` (``s1`` ``None`` for an open cone)
    whose steps apply the same matrices, as the first key's do.  Segment
    ``i`` walks as label ``i`` — closed segments first, so their entries
    sort below the cones' — in one forward walk and (closed segments only)
    one backward walk; per tic, a closed label keeps the forward entries
    the backward walk also reached, a cone all of its own.

    A closed segment's tic is non-empty exactly when some path joins its
    fixes, the same path for every tic.  So the walks stop a step short of
    the fixes (the fix tics are the fixes themselves, or nothing), and a
    segment no path joins is empty from its first tic on: it gets the
    "empty diamond" ``ValueError`` in its place.
    """
    n = chain.n_states
    t0, t1 = keys[0][0], keys[0][2]
    gap = t1 - t0
    order = sorted(range(len(keys)), key=lambda i: keys[i][3] is None)
    n_closed = sum(key[3] is not None for key in keys)
    cut = n_closed * n  # closed labels' entries sort below it
    labels = n * np.arange(len(keys))
    starts = labels + np.asarray([keys[i][1] for i in order], dtype=np.intp)
    ends = labels[:n_closed] + np.asarray([keys[i][3] for i in order[:n_closed]], dtype=np.intp)
    fwd = [starts]
    for k in range(gap):
        frontier = fwd[-1]
        if k == gap - 1 and gap > 1:  # the last step: cones only
            frontier = frontier[np.searchsorted(frontier, cut) :]
        fwd.append(_frontier_step(*chain.adjacency(t0 + k), frontier))
    bwd = [ends]
    for k in range(gap - 1):
        bwd.append(_frontier_step(*chain.adjacency(t1 - k - 1, backward=True), bwd[-1]))
    splits = [np.searchsorted(reached, cut) for reached in fwd]
    between = []  # the closed labels' entries at tics 1 .. gap - 1
    for k in range(1, gap):
        closed = fwd[k][: splits[k]]
        between.append(closed[_members(closed, bwd[gap - k])])
    if gap > 1:
        joined = np.zeros(n_closed, dtype=bool)
        joined[between[0] // n] = True
    else:
        joined = _members(ends, fwd[1][: splits[1]])
    tics = [np.concatenate((starts[:n_closed][joined], starts[n_closed:]))]
    tics += [np.concatenate((b, fwd[k][splits[k] :])) for k, b in enumerate(between, 1)]
    tics.append(np.concatenate((ends[joined], fwd[gap][splits[gap] :])))
    entries = np.concatenate(tics)
    label = entries // n
    # Label-major runs, each tic's states kept sorted.
    width = gap + 1
    run = label * width + np.repeat(np.arange(width), [tic.size for tic in tics])
    perm = np.argsort(run, kind="stable")
    states = (entries - label * n)[perm]
    offsets = np.zeros(len(keys) * width + 1, dtype=np.intp)
    np.cumsum(np.bincount(run, minlength=len(keys) * width), out=offsets[1:])
    out: list = [None] * len(keys)
    for lab, i in enumerate(order):
        key = keys[i]
        if lab < n_closed and not joined[lab]:
            out[i] = ValueError(
                f"empty diamond at t={key[0]}: observations "
                f"({key[0]},{key[1]}) -> ({key[2]},{key[3]}) contradict the chain"
            )
            continue
        span = offsets[lab * width : (lab + 1) * width + 1]
        out[i] = Diamond(
            key[0], key[2], key=key, states=states[span[0] : span[-1]], offsets=span - span[0]
        )
    return out


def compute_diamonds_many(
    requests: Sequence[tuple[TransitionModel, ObservationSet, int | None, Sequence[Diamond]]],
) -> list[list[Diamond] | ValueError]:
    """One diamond per inter-observation segment, for many objects at once.

    Each request is ``(chain, observations, extend_to, donor)`` as in
    :func:`compute_diamonds`.  The segments no donor supplies are pooled
    over all requests and grouped by the matrices they walk (the identity
    of ``chain.matrix_at(t)`` for every tic of the gap, as
    :meth:`TrajectoryDatabase.check_reachable` groups), and each group is
    derived by one labelled walk.

    Returns one entry per request, in order: its diamonds, or the
    ``ValueError`` :func:`compute_diamonds` raises for it — its earliest
    empty segment's.  A request fails alone; its batch peers get their
    diamonds.
    """
    plans: list[list] = []
    groups: dict[tuple, tuple[TransitionModel, list]] = {}
    matrices = []  # alive while their ids key the groups
    for chain, observations, extend_to, donor in requests:
        keys = [(a.time, a.state, b.time, b.state) for a, b in observations.segments()]
        last = observations.last
        if extend_to is not None and extend_to > last.time:
            keys.append((last.time, last.state, int(extend_to), None))
        if not keys:
            # Single-observation object: a degenerate diamond pinning the point.
            plans.append([Diamond(last.time, last.time, [np.asarray([last.state])])])
            continue
        carried = {d.key: d for d in donor if d.key is not None}
        diamonds = [carried.get(key) for key in keys]
        for slot, key in enumerate(keys):
            if diamonds[slot] is None:
                matrices.append([chain.matrix_at(t) for t in range(key[0], key[2])])
                group = groups.setdefault(tuple(map(id, matrices[-1])), (chain, []))
                group[1].append((key, diamonds, slot))
        plans.append(diamonds)
    for chain, members in groups.values():
        for (_, diamonds, slot), walked in zip(members, _walk(chain, [m[0] for m in members])):
            diamonds[slot] = walked
    return [next((d for d in ds if isinstance(d, ValueError)), ds) for ds in plans]


def compute_diamonds(
    chain: TransitionModel,
    observations: ObservationSet,
    extend_to: int | None = None,
    donor: Sequence[Diamond] = (),
) -> list[Diamond]:
    """One diamond per inter-observation segment — the one-object call of
    :func:`compute_diamonds_many`.

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
    (diamonds,) = compute_diamonds_many([(chain, observations, extend_to, donor)])
    if isinstance(diamonds, ValueError):
        raise diamonds
    return diamonds
