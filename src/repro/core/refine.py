"""What a refinement block is, and the cache that patches it.

Refinement (Section 5) is one operation: draw each influence object's
worlds from its a-posteriori model — independently per object — and hand
the NN counter one ``(objects, times, worlds)`` block.  Object
independence is why a block's columns may be computed anywhere: the
engine fills a :class:`RefineJob` locally
(:meth:`QueryEngine.fill_blocks <repro.core.evaluator.QueryEngine.fill_blocks>`),
the serve tier ships the same record to the shard owning each column, and
:class:`RefineCache` recomputes only the columns a database mutation made
stale.  A block is always one C-contiguous array, worlds last: distances
to the query (``"dist"``, ``inf`` where an object is not alive) or sampled
state ids (``"states"``, ``-1`` where it is not).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..markov import native as native_tier
from ..statespace.base import StateSpace

__all__ = [
    "RefineJob",
    "RefineCache",
    "distance_tables",
    "gather_distances",
    "reverse_tensors",
    "tabulates",
]


@dataclass
class RefineJob:
    """One block to fill: ``kind`` ∈ {``"dist"``, ``"states"``} over the
    *distinct* ``object_ids`` at ``times`` in ``n`` worlds.

    ``coords`` is the query's *evaluated* per-time coordinate table
    (``None`` for ``"states"``, which no query enters) — never a ``Query``
    object, whose closures do not pickle.
    """

    kind: str
    coords: np.ndarray | None
    times: np.ndarray
    object_ids: tuple[str, ...]
    n: int

    @property
    def key(self) -> tuple:
        """The block's identity: equal for equal content."""
        coords = b"" if self.coords is None else self.coords.tobytes()
        return (self.kind, coords, self.times.tobytes(), self.object_ids, self.n)

    def columns(self, cols) -> "RefineJob":
        """The same job over the objects at positions ``cols``."""
        return replace(self, object_ids=tuple(self.object_ids[c] for c in cols))

    def empty(self) -> np.ndarray:
        """The job's block with no object alive anywhere."""
        shape = (len(self.object_ids), self.times.size, self.n)
        if self.kind == "dist":
            return np.full(shape, np.inf)
        return np.full(shape, -1, dtype=np.intp)


@dataclass
class _Entry:
    stamp: tuple
    version: int
    block: np.ndarray | None

    def put(self, cols, filled: np.ndarray) -> None:
        """Write the columns a :meth:`RefineCache.claim` left to fill —
        every column of an entry the claim created."""
        if self.block is None:
            self.block = filled
        elif len(cols):
            self.block[cols] = filled


class RefineCache:
    """LRU of shared-world refinement blocks with dirty-column patching.

    Entries are keyed by ``(depth, job.key)`` — ``depth`` is the asking
    query's kNN depth, so each standing subscription's version accounting
    stays private to its own entry — stamped with the engine's
    ``(worlds_token, draw_epoch)`` and versioned with the database version
    they were last current at.
    """

    def __init__(self, db, capacity: int) -> None:
        self.db = db
        self.capacity = capacity
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()

    def stale(self, job: RefineJob, depth: int, stamp: tuple):
        """``(entry, cols)``: the entry a lookup would serve and the
        positions in ``job.object_ids`` it would recompute first — the
        objects mutated since the entry was last current.

        ``(None, every position)`` when the lookup would rebuild the whole
        block: a cold key, a stamp mismatch (new epoch or wholesale flush)
        or an overflowed mutation log.
        """
        entry = self._entries.get((depth, job.key))
        if entry is not None and entry.stamp == stamp:
            changed = self.db.changed_since(entry.version)
            if changed is not None:
                return entry, [
                    i for i, oid in enumerate(job.object_ids) if oid in changed
                ]
        return None, list(range(len(job.object_ids)))

    def fork(self) -> "RefineCache":
        """A copy to :meth:`claim` in (blocks shared): it takes this cache's
        place once every claimed block is filled, or is dropped."""
        fork = RefineCache(self.db, self.capacity)
        fork._entries = OrderedDict(
            (key, _Entry(e.stamp, e.version, e.block)) for key, e in self._entries.items()
        )
        return fork

    def claim(self, job: RefineJob, depth: int, stamp: tuple):
        """``(entry, cols, hit)``: look ``job`` up once — its current entry
        (``hit``) or a new one without a block, evicting the least recently
        used — marked current at the database version, and the positions
        whose columns the caller must :meth:`~_Entry.put` into it before
        reading its block.

        A hit's stale objects are patched in place — each one contiguous
        ``(times, worlds)`` slab of the cached array — which is
        bit-identical to a rebuild: clean columns' worlds are world-cache
        hits at the same stamp, and stale ones redraw what a wholesale
        pass would.
        """
        entry, cols = self.stale(job, depth, stamp)
        key = (depth, job.key)
        hit = entry is not None
        if not hit:
            entry = self._entries[key] = _Entry(stamp, 0, None)
        self._entries.move_to_end(key)
        entry.version = self.db.version
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return entry, cols, hit


def tabulates(space: StateSpace, n_times: int, n: int, n_drawn: int) -> bool:
    """Whether a ``"dist"`` block over ``n_times`` tics gathers from a
    per-(tic, state) distance table (:func:`distance_tables`) rather than
    from per-world coordinates: ``n_drawn`` is the block's drawn tics."""
    return n_times * space.n_states <= max(1_000_000, 4 * n * n_drawn)


def distance_tables(space: StateSpace, coords: list[np.ndarray]) -> list[np.ndarray]:
    """Each query's ``(tics, states)`` distance table, from one broadcast.

    Distances depend only on (tic, state): tabulating them once per query
    — the same subtract/square/sum/sqrt the per-object oracle applies, so
    values stay bit-identical — lets gathering rows of the table replace
    materializing ``(tics, n, d)`` coordinate blocks.  The queries' tics
    are stacked, so a batch of blocks pays one broadcast.  A static query
    (every tic at one point) gets a ``(1, states)`` table — its one row,
    which :func:`gather_distances` reads at every tic.
    """
    if not coords:
        return []
    coords = [c[:1] if (c == c[:1]).all() else c for c in coords]
    stacked = np.concatenate(coords) if len(coords) > 1 else coords[0]
    if space.ndim <= 2:
        # At most one addition per norm, so the order ``np.sum`` adds in
        # is moot: run the same operations with the states, not the d
        # coordinates, in the inner loop.
        by_dim = np.ascontiguousarray(space.coords.T)  # (d, S)
        diff = by_dim[:, None, :] - stacked.T[:, :, None]
        table = np.sqrt(np.add.reduce(diff * diff, axis=0))
    else:
        diff = space.coords[None, :, :] - stacked[:, None, :]
        table = np.sqrt(np.sum(diff * diff, axis=-1))  # (T, S)
    ends = np.cumsum([len(c) for c in coords])
    return [table[end - len(c) : end] for c, end in zip(coords, ends)]


def gather_distances(
    space: StateSpace,
    coords: np.ndarray,
    alive: np.ndarray,
    live_cols: np.ndarray,
    states: list[np.ndarray],
    n: int,
    native: bool,
    per_state: np.ndarray | None = None,
) -> np.ndarray:
    """The ``"dist"`` block from drawn states, gathered row by row — tic
    ``t``'s ``n`` worlds at a time — into each object's slab.

    ``states[i]`` is object ``live_cols[i]``'s ``(n, alive tics)`` worlds.
    ``per_state`` is the query's :func:`distance_tables` entry (one row
    for a static query) when
    :func:`tabulates` holds (computed here when not passed); huge state
    spaces gather coordinates for the sampled states only instead.
    This is one of the two allocation sites (with the sampler's sweep
    buffer) that decide the refinement memory order: the block is
    C-contiguous ``(objects, times, worlds)``.
    """
    # A lifespan is an interval, so an object is alive over one run of
    # the sorted tics: its tic-major states fill ``block[col, lo:hi]``.
    rows = [s.T for s in states]
    first = alive.argmax(axis=1)[live_cols]
    slabs = [(col, lo, lo + len(r), r) for col, lo, r in zip(live_cols, first, rows)]
    shape = (*alive.shape, n)
    block = np.empty(shape) if alive.all() else np.full(shape, np.inf)
    if per_state is None and tabulates(space, alive.shape[1], n, sum(len(r) for r in rows)):
        (per_state,) = distance_tables(space, [coords])
    if per_state is not None:
        if native and native_tier.can_gather_rows(rows):
            return native_tier.gather_distance_rows(
                per_state, rows, live_cols, first, block
            )
        flat = per_state.ravel()
        stride = space.n_states if len(per_state) > 1 else 0
        for col, lo, hi, r in slabs:
            offsets = np.arange(lo, hi) * stride
            np.take(flat, r + offsets[:, None], out=block[col, lo:hi])
    else:
        for col, lo, hi, r in slabs:
            diff = space.coords_of(r) - coords[lo:hi, None, :]
            block[col, lo:hi] = np.sqrt(np.einsum("tnd,tnd->tn", diff, diff))
    return block


def reverse_tensors(
    space: StateSpace, states: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Derive ``(dist, object_dist)`` from one ``"states"`` block.

    The query-distance component applies exactly the per-object oracle's
    subtract/square/sum/sqrt, so values at alive positions are
    bit-identical to a ``"dist"`` block over the same worlds.
    The inter-object component is computed in world chunks to bound
    the ``(O, O, T, chunk, d)`` broadcast intermediate.  Both are
    computed world-minor and answered as ``[w, …]`` views.
    """
    n_objects, n_times, n = states.shape
    at = space.coords_of(np.where(states >= 0, states, 0))
    dist = np.sqrt(np.sum((at - coords[None, :, None, :]) ** 2, axis=-1))
    dead = states[:, :, 0] < 0  # every world of a dead (object, tic) is -1
    dist[dead] = np.inf
    object_dist = np.empty((n_objects, n_objects, n_times, n))
    step = max(1, int(4_000_000 // max(1, n_objects * n_objects * n_times)))
    for start in range(0, n, step):
        blk = at[:, :, start : start + step]
        diff = blk[:, None] - blk[None, :]
        object_dist[..., start : start + step] = np.sqrt(
            np.sum(diff * diff, axis=-1)
        )
    object_dist[dead[:, None, :] | dead[None, :, :]] = np.inf
    object_dist[np.arange(n_objects), np.arange(n_objects)] = np.inf
    return dist.transpose(2, 0, 1), object_dist.transpose(3, 0, 1, 2)
