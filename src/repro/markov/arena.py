"""The sampling arena: every possible-world draw of the engine, one call.

The refinement step (Section 5) draws possible worlds for *every* candidate
object of a query, and the paper's experiments scale the number of objects
into the thousands (Fig. 8, Fig. 13).  :func:`sample_paths_arena` draws
``n`` worlds for a whole batch of requests — fresh or resumed
(``start_states``), over any sub-windows of their objects' spans — in one
pass; objects are registered once with a :class:`SamplingArena`.  Its
buffer is ``(request, tic, world)`` and each request's result is a
transposed *view* of its slab, so the world axis is the unit-stride one
all the way to the NN counter.

The arena owns its sweep.  ``SamplingArena(native=True)`` — what a default
``QueryEngine`` builds wherever the C tier loads — hands each request's own
model tables (:attr:`~repro.markov.compiled.CompiledModel.tables`) to the
C sweep of :mod:`repro.markov.native` and fuses nothing.  Otherwise numpy
sweeps *fused* per-timestep tables: the participating objects' supports,
per-row CDFs and successors, each cut out of the object's own model
tables and concatenated with per-object row offsets, so
each timestep costs a fixed handful of array operations whatever the
number of objects.  Fused tables pack every arena object covering a tic,
so at most :data:`FUSED_DRAW_THRESHOLD` requests are drawn per object
instead.

Every path draws the same bytes from the same streams — results cannot
depend on which one ran, nor on which other objects a batch holds:

* **Per-object RNG streams are preserved.**  Every request carries its own
  generator; a sweep draws that object's entire uniform block as one
  ``rng.random(blocks · n)`` call, which consumes the stream exactly like
  the per-object path's sequence of ``rng.random(n)`` calls (one initial
  variate block for fresh draws, one block per transition).  The generator
  is parked after the last drawn column, so cached-world forward extension
  resumes identically.
* **The draw arithmetic matches.**  Initial draws repeat the per-object
  sampler's raw-domain inverse-CDF search verbatim (once per request).
  A transition draw, at every row width, is the count of the row's *raw*
  CDF entries ``<= u`` — exactly the reference sampler's pick, and
  :meth:`~repro.markov.compiled.CompiledModel.sample_paths`'.
* **Neither order nor position matters.**  Every fused table is cut out
  of its members' own :class:`~repro.markov.compiled.ModelTables`; each
  sample's row resolves to its own object's state and CDF row, and the
  ``+inf`` padding is never counted, so the arena keeps no registration
  order and no arena-wide positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.metrics import MetricsRegistry
from . import native as native_tier
from .compiled import CompiledModel, check_draw

__all__ = ["ArenaRequest", "SamplingArena", "sample_paths_arena"]

#: At or below this many requests the numpy sweep draws each object with
#: :meth:`CompiledModel.sample_paths` — bit-identical, and no fused table
#: is built — the streaming shape, where an ingest leaves a couple of
#: dirty objects to redraw while the rest of the working set stays cached.
FUSED_DRAW_THRESHOLD = 4


@dataclass
class ArenaRequest:
    """One object's share of a fused draw.

    ``rng`` is consumed exactly as the per-object sampler would consume it.
    With ``start_states`` the draw resumes previously sampled paths: no
    initial variate is used and the first output column echoes the given
    states (the world cache's forward-extension contract).
    """

    object_id: str
    t_lo: int
    t_hi: int
    rng: np.random.Generator
    start_states: np.ndarray | None = None


class _Block:
    """One registered object: its compiled model.

    ``native`` caches the C sweep's checked struct over ``model.tables``
    — ``t_first`` and the tables' addresses — set by
    :mod:`repro.markov.native` on the block's first native draw.  It lives
    here, on the engine-owned arena, and not on the model: models travel
    with pickled database objects, addresses do not.
    """

    __slots__ = ("model", "native")

    def __init__(self, model: CompiledModel) -> None:
        self.model = model
        self.native = None


class _StepTable:
    """Fused per-timestep tables of the numpy sweep over every arena
    object covering ``t``, cut out of each object's ``model.tables``.

    ``states`` fuses the posterior supports (state gathers) and ``tr_*``
    the transition rows of ``F(t)`` (one global inverse-CDF draw for all
    samples of all objects); ``row_base`` maps each member block to its
    first row.  Each sample's row resolves to its own object's state and
    CDF row, and the ``+inf`` padding is never counted, so fused results
    depend neither on the member order nor on which other objects a query
    refines.
    """

    __slots__ = ("row_base", "states", "tr_cdf_cols", "tr_next_dense", "tr_width")

    def __init__(self, blocks: list[_Block], t: int, states_dtype: np.dtype) -> None:
        # Each member's rows at ``t``: ``(block, tables, lo, hi)``.
        members = []
        self.row_base: dict[_Block, int] = {}
        next_base: dict[_Block, int] = {}
        base = nb = 0
        for block in blocks:
            model = block.model
            k = t - model.t_first
            if model.covers(t):
                tables = model.tables
                members.append((block, tables, tables.row0[k], tables.row0[k + 1]))
                self.row_base[block] = base
                base += tables.row0[k + 1] - tables.row0[k]
            # Successors address the NEXT step's table, which lays out the
            # blocks covering ``t + 1`` in this same order.
            if model.covers(t + 1):
                next_base[block] = nb
                nb += model.tables.row0[k + 2] - model.tables.row0[k + 1]
        n_rows = int(base)
        self.states = (
            np.concatenate([tb.states[lo:hi] for _, tb, lo, hi in members]).astype(
                states_dtype, copy=False
            )
            if members
            else np.empty(0, dtype=states_dtype)
        )

        # Transition tables are indexed by the *same* global support rows
        # as the state table (rows of objects ending at ``t`` stay empty
        # and are never addressed), and successor entries are rebased to
        # the NEXT step's global rows — so a sweeping draw carries global
        # row cursors from step to step with zero per-request offset math.
        # The members going on to ``t + 1``, with their CSR entry range.
        going = [
            (block, tb, lo, hi, tb.indptr[lo], tb.indptr[hi])
            for block, tb, lo, hi in members
            if block in next_base
        ]
        self.tr_width = 0
        self.tr_cdf_cols = self.tr_next_dense = None
        if not going:
            return
        # One slice of each going member's table: its CSR rows at ``t``,
        # successors with each row's trailing entry (entry ``e`` of model
        # row ``g`` sits at ``next[e + g]``), rebased to this block's rows
        # of the next step — joined once, so a build costs a fixed handful
        # of array operations whatever the number of members.
        cdf_all = np.concatenate([tb.cdf[e0:e1] for _, tb, _, _, e0, e1 in going])
        sizes = np.concatenate([tb.indptr[lo + 1 : hi + 1] for _, tb, lo, hi, _, _ in going])
        sizes -= np.concatenate([tb.indptr[lo:hi] for _, tb, lo, hi, _, _ in going])
        succ = np.concatenate([tb.next[e0 + lo : e1 + hi] for _, tb, lo, hi, e0, e1 in going])
        succ += np.repeat(
            [next_base[block] - hi for block, _, _, hi, _, _ in going],
            [e1 - e0 + hi - lo for _, _, lo, hi, e0, e1 in going],
        )
        # Each going row's global row in this table.
        n_local = np.array([hi - lo for _, _, lo, hi, _, _ in going])
        grow = np.arange(sizes.size) + np.repeat(
            [self.row_base[block] for block, *_ in going] - (np.cumsum(n_local) - n_local),
            n_local,
        )
        trailing = np.cumsum(sizes) + np.arange(sizes.size)
        next_all = np.delete(succ, trailing)
        width = self.tr_width = int(sizes.max())
        dtype = np.int32 if nb < np.iinfo(np.int32).max else np.intp
        # Successor rows fit int32 (almost always): half the gather traffic
        # on the hottest table of the sweep.
        next_all = next_all.astype(dtype)
        row_sizes = np.zeros(n_rows, dtype=np.intp)
        row_sizes[grow] = sizes
        tr_indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(row_sizes, out=tr_indptr[1:])
        # Each row's trailing entry fills its padded successor row, so the
        # boundary case u >= cdf[-1] lands there without a clip.  Rows of
        # objects ending at ``t`` keep zeros — they are never drawn from.
        last = np.zeros(n_rows, dtype=dtype)
        last[grow] = succ[trailing]
        # Dense draw strategy: per-row CDFs padded to the table-wide max
        # width with +inf, stored column-major so a draw is ``width``
        # cache-friendly gathers from row-length arrays — and the
        # comparison happens in the *raw* CDF domain, exactly the reference
        # sampler's count of entries <= u.
        rows_all = np.repeat(grow, sizes)
        offsets = np.arange(rows_all.size, dtype=np.intp) - tr_indptr[rows_all]
        cols = np.full((width, n_rows), np.inf)
        cols[offsets, rows_all] = cdf_all
        self.tr_cdf_cols = cols
        next_pad = np.repeat(last, width + 1).reshape(n_rows, width + 1)
        next_pad[rows_all, offsets] = next_all
        self.tr_next_dense = next_pad.ravel()

    def draw_transitions(self, g: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One fused inverse-CDF step for every sample's global row ``g``.

        Returns the samples' global rows *in the next step's table*: the
        count of raw CDF entries ``<= u`` accumulated over the padded
        columns lands in the sample's own row, matching the per-object
        draw of :meth:`CompiledModel.sample_paths` bit for bit.
        """
        counts = np.zeros(g.size, dtype=np.intp)
        for col in self.tr_cdf_cols:
            counts += col[g] <= u
        return np.take(self.tr_next_dense, g * (self.tr_width + 1) + counts)


class SamplingArena:
    """The objects a sweep may draw, and the numpy sweep's fused tables.

    Objects are registered once via :meth:`ensure` (idempotent); draws do
    not depend on the order they were registered in.  Per-timestep fused
    tables are built lazily on first draw through a timestep and rebuilt
    only when an object joins or leaves the steps they cover.

    The arena owns the sweep: with ``native=True``
    :func:`sample_paths_arena` runs the C sweep over each object's own
    model tables and no step table is ever built.

    Table builds count into ``metrics``' ``arena_table_builds_total`` (an
    engine passes its registry, so the count survives arena resets).
    """

    def __init__(self, native: bool = False, metrics: MetricsRegistry | None = None) -> None:
        self.native = native
        self._blocks: dict[str, _Block] = {}
        self._tables: dict[int, _StepTable] = {}
        #: Advances on every change of the packed set (a join or an evict).
        self._version = 0
        self._states_dtype = np.dtype(np.int32)
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._builds = metrics.counter(
            "arena_table_builds_total", help="Per-tic step table builds (incl. LRU re-builds)."
        )

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._blocks

    @property
    def table_builds(self) -> int:
        """Cumulative per-timestep table builds — the observable the
        LRU-eviction and ingest regression tests pin down."""
        return self._builds.value

    @property
    def states_dtype(self) -> np.dtype:
        """Output state dtype: int32 while every packed state id fits (half
        the memory traffic on the sweep's hottest gathers), intp otherwise."""
        return self._states_dtype

    def ensure(self, object_id: str, model: CompiledModel) -> None:
        """Register an object's compiled model (no-op when already packed)
        — :meth:`ensure_many`'s one-object call."""
        self.ensure_many([object_id], [model])

    def ensure_many(
        self, object_ids: Sequence[str], models: Sequence[CompiledModel]
    ) -> None:
        """Register many objects' compiled models in one call (each a no-op
        when its object is already packed): the built tables any of them
        joins are dropped in one pass over the table cache."""
        joined = []
        for object_id, model in zip(object_ids, models):
            if object_id not in self._blocks:
                self._blocks[object_id] = _Block(model)
                joined.append(model)
        if not joined:
            return
        # CompiledModel caches its span maximum, so a churny ingest stream
        # (discard + re-ensure per observation) scans it once per model.
        if self._states_dtype == np.int32 and any(
            model.max_state >= np.iinfo(np.int32).max for model in joined
        ):
            self._states_dtype = np.dtype(np.intp)
            self._tables.clear()
        else:
            # A new object must join every built table whose step it covers
            # (including tables at t-1, whose successor offsets depend on
            # the support layout at t); tables elsewhere stay valid, so
            # churny workloads that keep introducing candidates don't
            # repack the whole horizon per query.
            self._drop_tables(joined)
        self._version += 1

    def discard(self, object_id: str) -> bool:
        """Evict one object's packed tables (no-op when not packed).

        The streaming-ingest invalidation hook: a mutated object's stale
        inverse-CDF tables must never answer draws, but evicting it must
        not disturb anyone else — only the fused per-timestep tables its
        span participates in are dropped (they rebuild lazily, exactly as
        after :meth:`ensure`), every other table and block stays intact.
        A subsequent :meth:`ensure` re-packs the object's new model; draws
        stay bit-identical either way because each request consumes only
        its own RNG stream.
        """
        block = self._blocks.pop(object_id, None)
        if block is None:
            return False
        self._drop_tables([block.model])
        self._version += 1
        return True

    def _drop_tables(self, models: list[CompiledModel]) -> None:
        doomed = [
            t
            for t in self._tables
            if any(model.covers(t) or model.covers(t + 1) for model in models)
        ]
        for t in doomed:
            del self._tables[t]

    def block(self, object_id: str) -> _Block:
        try:
            return self._blocks[object_id]
        except KeyError:
            raise KeyError(
                f"object {object_id!r} is not packed into this arena"
            ) from None

    #: Maximum cached per-timestep tables; beyond it the least recently
    #: used is evicted (rebuilds are cheap relative to draws, so this only
    #: bounds memory for horizon-spanning workloads).
    table_capacity = 1024

    def table(self, t: int) -> _StepTable:
        """The fused tables at absolute time ``t`` (built lazily, LRU-cached)."""
        table = self._tables.get(t)
        if table is None:
            table = _StepTable(list(self._blocks.values()), t, self._states_dtype)
            self._builds.inc()
            if len(self._tables) >= self.table_capacity:
                self._tables.pop(next(iter(self._tables)))
            self._tables[t] = table
        else:
            # Move-to-end on hit (true LRU): dict order is insertion order,
            # so re-inserting refreshes recency — a horizon-spanning sweep
            # that re-enters early tics no longer evicts its hot tables.
            del self._tables[t]
            self._tables[t] = table
        return table


def sample_paths_arena(
    arena: SamplingArena,
    requests: list[ArenaRequest],
    n: int,
) -> list[np.ndarray]:
    """Draw ``n`` posterior paths per request in one pass.

    Returns one ``(n, t_hi - t_lo + 1)`` state array per request, in
    request order — each bit-identical to what the per-object
    :meth:`CompiledModel.sample_paths` would have produced from the same
    generator (see the module docstring for why), and like it a view
    whose world axis is contiguous: all results share the one sweep buffer.

    A native arena (``SamplingArena(native=True)``) runs the whole sweep
    through the C kernel tier (:mod:`repro.markov.native`) — byte-identical
    results from the same RNG streams, one C call over each request's own
    model tables; it raises the tier's descriptive error when the kernels
    cannot load.
    """
    n, _ = check_draw(n)
    if not requests:
        return []
    n_req = len(requests)
    a_arr = np.empty(n_req, dtype=np.intp)
    b_arr = np.empty(n_req, dtype=np.intp)
    resumed = np.zeros(n_req, dtype=bool)
    blocks: list[_Block] = []
    starts: list[np.ndarray | None] = []
    for r, req in enumerate(requests):
        block = arena.block(req.object_id)
        a, b = int(req.t_lo), int(req.t_hi)
        if a > b:
            raise ValueError(f"empty sampling window [{a}, {b}]")
        if not (block.model.covers(a) and block.model.covers(b)):
            raise KeyError(
                f"window [{a}, {b}] outside adapted span "
                f"[{block.model.t_first}, {block.model.t_last}] "
                f"of object {req.object_id!r}"
            )
        _, start = check_draw(n, req.start_states)
        resumed[r] = start is not None
        blocks.append(block)
        starts.append(start)
        a_arr[r], b_arr[r] = a, b

    if arena.native:
        return native_tier.draw_arena(
            arena.states_dtype, requests, n, blocks, starts, a_arr, b_arr, resumed
        )

    widths = b_arr - a_arr + 1
    buf = np.empty((n_req, int(widths.max()), n), dtype=arena.states_dtype)
    if n_req <= FUSED_DRAW_THRESHOLD:
        for r, req in enumerate(requests):
            buf[r, : widths[r]] = blocks[r].model.sample_paths(
                req.rng, n, a_arr[r], b_arr[r], start_states=starts[r]
            ).T
        return [buf[r, : int(widths[r])].T for r in range(n_req)]

    # Columnar layouts: request r owns row r (resp. column r) of every
    # tensor.  ``uniforms`` is time-major — block 0 holds the initial
    # variates of fresh requests, block j the transition variates of step
    # j — so a lockstep sweep reads each step's uniforms as a zero-copy
    # view.  ``rows`` carries every sample's *global* support row in the
    # current step's table (transition tables return next-step global rows
    # directly), ``buf`` collects the output columns.
    u_blocks = widths - resumed
    uniforms = np.empty((int(u_blocks.max()), n_req, n))
    for r, req in enumerate(requests):
        k = int(u_blocks[r]) * n
        if k:
            # One bulk call consumes the per-object stream exactly like the
            # per-object sampler's sequence of rng.random(n) calls.
            uniforms[: int(u_blocks[r]), r] = req.rng.random(k).reshape(-1, n)
    rows = np.empty((n_req, n), dtype=np.intp)
    every = np.arange(n_req, dtype=np.intp)
    # The common engine shape — every candidate drawn over one shared
    # window with one resume-mode — keeps scalar step indices: contiguous
    # uniform views and writes, no per-request index construction.
    lockstep = bool(
        np.all(a_arr == a_arr[0])
        and np.all(b_arr == b_arr[0])
        and np.all(resumed == resumed[0])
    )
    a0, b0 = int(a_arr[0]), int(b_arr[0])

    def fused_initial(table: _StepTable, t: int, fresh: np.ndarray) -> None:
        # Initial draws happen once per request, not once per timestep, so
        # a per-request inverse-CDF search is cheap — and, unlike a fused
        # offset-CDF search, it repeats CompiledModel._draw_initial_rows'
        # *raw-domain* comparison exactly, keeping initial states
        # bit-identical by construction.
        for r in fresh:
            _, cdf = blocks[r].model.initial_table(t)
            picks = np.searchsorted(cdf, uniforms[0, r], side="right")
            np.minimum(picks, cdf.size - 1, out=picks)
            rows[r] = picks + table.row_base[blocks[r]]

    for t in range(int(a_arr.min()), int(b_arr.max()) + 1):
        if lockstep:
            table = arena.table(t)
            if t == a0:
                if resumed[0]:
                    for r in every:
                        rows[r] = (
                            blocks[r].model.rows_of_states(t, starts[r])
                            + table.row_base[blocks[r]]
                        )
                else:
                    fused_initial(table, t, every)
            buf[:, t - a0] = table.states[rows]
            if t < b0:
                u2d = uniforms[t - a0 + (not resumed[0])]
                rows[:] = table.draw_transitions(
                    rows.ravel(), u2d.reshape(-1)
                ).reshape(n_req, n)
            continue
        # General shape: requests join and leave the sweep as it enters and
        # exits their windows (gap tics — e.g. disjoint windows — are idle).
        act = np.flatnonzero((a_arr <= t) & (t <= b_arr))
        if act.size == 0:
            continue
        table = arena.table(t)
        starters = act[a_arr[act] == t]
        fresh = starters[~resumed[starters]]
        if fresh.size:
            fused_initial(table, t, fresh)
        for r in starters[resumed[starters]]:
            rows[r] = (
                blocks[r].model.rows_of_states(t, starts[r])
                + table.row_base[blocks[r]]
            )
        buf[act, t - a_arr[act]] = table.states[rows[act]]
        mv = act[t < b_arr[act]]
        if mv.size:
            u2d = uniforms[t - a_arr[mv] + (~resumed[mv]), mv]
            rows[mv] = table.draw_transitions(
                rows[mv].ravel(), u2d.reshape(-1)
            ).reshape(mv.size, n)

    return [buf[r, : int(widths[r])].T for r in range(n_req)]
