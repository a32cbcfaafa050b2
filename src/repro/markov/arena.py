"""Fused multi-object sampling arena: columnar candidate batching.

The refinement step (Section 5) draws possible worlds for *every* candidate
object of a query, and the paper's experiments scale the number of objects
into the thousands (Fig. 8, Fig. 13).  Sampling candidates one at a time —
the per-object path of :meth:`CompiledModel.sample_paths` — pays a Python
loop per object *and* a Python loop per timestep inside each object; at a
hundred candidates that is tens of thousands of tiny array operations per
query.

The :class:`SamplingArena` turns the object axis into a vectorized axis.
It packs the compiled CSR inverse-CDF tables of many objects into one
contiguous arena — per timestep, the participating objects' supports,
per-row CDFs and successor tables are concatenated with per-object row
offsets — and :func:`sample_paths_arena` draws worlds for all requested
objects in a single pass over the **union window**.  All samples of all
requests live in one flat slot array (request ``r`` owns slots
``[r·n, (r+1)·n)``), so each timestep costs a fixed handful of array
operations — index arithmetic, one ``searchsorted``, one gather, one
scatter — regardless of how many objects are being sampled.  The only
per-object Python work is setup (one RNG block per request); there is no
teardown — the sweep buffer is ``(request, tic, world)`` and each request's
result is a transposed *view* of its slab, so the world axis is the
unit-stride one all the way to the NN counter.

Bit-identity with the per-object path
-------------------------------------
Seeded results must not depend on whether the fused or the per-object path
produced them (the engine's small-draw branch, golden files, and the
world cache's replay determinism all rely on it).  Two properties make the
fused draw bit-identical per object:

* **Per-object RNG streams are preserved.**  Every request carries its own
  generator; the arena draws that object's entire uniform block as one
  ``rng.random(blocks · n)`` call, which consumes the stream exactly like
  the per-object path's sequence of ``rng.random(n)`` calls (one initial
  variate block for fresh draws, one block per transition).  The generator
  is parked after the last drawn column, so cached-world forward extension
  resumes identically.
* **The draw arithmetic matches.**  Initial draws repeat the per-object
  sampler's raw-domain inverse-CDF search verbatim (once per request).
  Transition draws use the dense strategy whenever rows are narrower than
  :data:`~repro.markov.compiled._DENSE_WIDTH_LIMIT`: the count of *raw*
  CDF entries ``<= u`` — exactly the reference sampler's pick.  Only
  tables with wider rows fall back to one flat
  ``searchsorted(cdf + g, g + u, "right")`` over globally offset CDFs,
  the same float-offset trick (and the same measure-zero boundary caveat)
  as :class:`CompiledLayer`'s own flat path.

Requests may mix fresh draws and resumed draws (``start_states``), and
objects may cover different sub-windows of the union; objects join and
leave the fused pass as the timestep sweep enters and exits their windows.

The arena owns its sweep.  ``SamplingArena(native=True)`` — what a
default ``QueryEngine`` builds wherever the C tier loads — packs compact
CSR step tables and sweeps them in C (:mod:`repro.markov.native`);
otherwise the padded dense tables above are swept by numpy.  Both draw
the same bytes from the same streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native as native_tier
from .compiled import _DENSE_WIDTH_LIMIT, CompiledModel

__all__ = ["ArenaRequest", "SamplingArena", "sample_paths_arena"]


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
    """One object's packed tables plus its stable arena position."""

    __slots__ = ("object_id", "order", "pos", "model", "init_native")

    def __init__(self, object_id: str, order: int, pos: int, model: CompiledModel) -> None:
        self.object_id = object_id
        self.order = order
        self.pos = pos
        self.model = model
        # Native-tier cache: start tic -> pinned contiguous initial CDF
        # (see repro.markov.native.draw_arena).
        self.init_native: dict[int, tuple] = {}


class _StepTable:
    """Fused per-timestep tables over every arena object covering ``t``.

    ``states``/``sup_base`` fuse the posterior supports (state gathers)
    and ``tr_*`` the transition layers ``F(t)`` (one global inverse-CDF
    draw for all samples of all objects).  ``sup_base`` is a dense array
    indexed by arena position (``-1`` where the object does not cover the
    step), so a draw resolves its offsets with one fancy gather.  Global
    row indices are arena-wide — draws over any object subset address the
    same rows, so fused results cannot depend on which other objects a
    query refines.
    """

    __slots__ = (
        "sup_base",
        "states",
        "tr_cdf_cols",
        "tr_next_dense",
        "tr_width",
        "csr_cdf",
        "csr_indptr",
        "csr_next",
        "n_next",
        "wide",
        "is_wide",
        "_native",
    )

    def __init__(
        self,
        blocks: list[_Block],
        ordered: list[_Block],
        n_arena: int,
        t: int,
        states_dtype: np.dtype = np.dtype(np.intp),
        csr: bool = False,
    ) -> None:
        # Lazily built native-kernel view of this table (a cffi struct plus
        # its keepalive buffers); see repro.markov.native._step_struct.
        self._native = None
        self.sup_base = np.full(n_arena, -1, dtype=np.intp)
        sup_parts: list[np.ndarray] = []
        base = 0
        for block in blocks:
            states = block.model.support_at(t)
            self.sup_base[block.pos] = base
            sup_parts.append(states)
            base += states.size
        n_rows = base
        self.states = (
            np.concatenate(sup_parts).astype(states_dtype, copy=False)
            if sup_parts
            else np.empty(0, dtype=states_dtype)
        )

        # Transition tables are indexed by the *same* global support rows
        # as the state table (rows of objects ending at ``t`` stay empty
        # and are never addressed), and successor entries are pre-offset to
        # the NEXT step's global rows — so a sweeping draw carries global
        # row cursors from step to step with zero per-request offset math.
        # Objects whose layer has a row wider than the dense limit are NOT
        # fused: they fall back to their own :meth:`CompiledLayer.draw`
        # (``wide``), which repeats the per-object arithmetic bit for bit
        # — and keeps one hub object from inflating everyone's padding.
        next_base: dict[int, int] = {}
        nb = 0
        for block in ordered:
            if block.model.covers(t + 1):
                next_base[block.pos] = nb
                nb += block.model.support_at(t + 1).size
        self.n_next = nb
        self.wide: dict[int, tuple] = {}
        self.is_wide = np.zeros(n_arena, dtype=bool)
        row_sizes = np.zeros(n_rows, dtype=np.intp)
        cdf_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        next_parts: list[np.ndarray] = []
        width = 0
        for block in blocks:
            if not block.model.covers(t + 1):
                continue
            layer = block.model.layer(t)
            layer_width = (
                int(np.diff(layer.indptr).max()) if layer.support.size else 0
            )
            if layer_width > _DENSE_WIDTH_LIMIT:
                self.wide[block.pos] = (layer, next_base[block.pos])
                self.is_wide[block.pos] = True
                continue
            width = max(width, layer_width)
            gb = self.sup_base[block.pos]
            row_sizes[gb : gb + layer.support.size] = np.diff(layer.indptr)
            cdf_parts.append(layer.cdf_flat)
            if not csr:
                row_parts.append(layer.entry_rows + gb)
            next_parts.append(layer.local_next + next_base[block.pos])
        self.tr_width = width
        self.tr_cdf_cols = self.tr_next_dense = None
        self.csr_cdf = self.csr_indptr = self.csr_next = None
        if not next_parts:
            return
        cdf_all = np.concatenate(cdf_parts)
        next_all = np.concatenate(next_parts)
        if nb < np.iinfo(np.int32).max:
            # Successor rows fit int32: half the gather traffic on the
            # hottest table of the sweep.
            next_all = next_all.astype(np.int32)
        tr_indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(row_sizes, out=tr_indptr[1:])
        # Each row's last successor, repeated once more so the boundary
        # case u >= cdf[-1] lands there without a clip (exactly
        # CompiledLayer's padding).  Empty rows (objects ending at ``t``,
        # wide objects) keep zeros — they are never drawn from.
        filled = row_sizes > 0
        last = np.zeros(n_rows, dtype=next_all.dtype)
        last[filled] = next_all[tr_indptr[1:][filled] - 1]
        if csr:
            # Compact CSR for the C sweep: each row's own CDF entries and
            # successors plus that one trailing entry — a row's true width
            # of memory traffic, the same doubles in the same order.
            self.csr_cdf, self.csr_indptr = cdf_all, tr_indptr
            self.csr_next = np.insert(next_all, tr_indptr[1:], last)
            return
        # Dense draw strategy (cf. CompiledLayer): per-row CDFs padded to
        # the table-wide max width with +inf, stored column-major so a draw
        # is ``width`` cache-friendly gathers from row-length arrays — and
        # the comparison happens in the *raw* CDF domain, exactly the
        # reference sampler's count of entries <= u.
        rows_all = np.concatenate(row_parts)
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
        columns lands in the sample's own row, matching
        :meth:`CompiledLayer.draw` bit for bit.  Only narrow (dense-fused)
        rows are ever passed here; wide objects draw through their own
        layer (see :attr:`wide`).
        """
        counts = np.zeros(g.size, dtype=np.intp)
        for col in self.tr_cdf_cols:
            counts += col[g] <= u
        return np.take(self.tr_next_dense, g * (self.tr_width + 1) + counts)


class SamplingArena:
    """Packed inverse-CDF tables of many objects, fused per timestep.

    Objects are registered once via :meth:`ensure` (idempotent) together
    with a stable ordering index — the engine passes the database's
    insertion order (:meth:`TrajectoryDatabase.object_index`) so the packed
    layout is independent of candidate-list order.  Per-timestep fused
    tables are built lazily on first draw through a timestep and rebuilt
    only when the arena gains objects.

    The arena owns the sweep: ``native=True`` packs each step as the
    compact CSR the C sweep of :mod:`repro.markov.native` reads (no dense
    table is ever built) and :func:`sample_paths_arena` runs that sweep;
    the default packs the padded dense tables of the numpy sweep.
    """

    def __init__(self, native: bool = False) -> None:
        self.native = native
        self._blocks: dict[str, _Block] = {}
        self._tables: dict[int, _StepTable] = {}
        self._version = 0
        self._states_dtype = np.dtype(np.int32)
        #: Cumulative count of per-timestep table builds — the observable
        #: the LRU-eviction and ingest regression tests pin down.
        self.table_builds = 0
        #: Optional metrics mirror (``arena_table_builds_total``): the
        #: engine binds a registry counter here (see
        #: ``QueryEngine._new_arena``); ``None`` keeps the path free.
        self.table_build_counter = None
        # Arena positions are allocated monotonically and never reused:
        # a discarded object leaves a hole (dense per-table arrays are
        # indexed by position, so reusing one would alias a live block).
        self._pos_counter = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._blocks

    @property
    def states_dtype(self) -> np.dtype:
        """Output state dtype: int32 while every packed state id fits (half
        the memory traffic on the sweep's hottest gathers), intp otherwise."""
        return self._states_dtype

    def ensure(self, object_id: str, model: CompiledModel, order: int | None = None) -> None:
        """Register an object's compiled model (no-op when already packed)."""
        if object_id in self._blocks:
            return
        if order is None:
            order = len(self._blocks)
        self._blocks[object_id] = _Block(
            object_id, int(order), self._pos_counter, model
        )
        self._pos_counter += 1
        was_dtype = self._states_dtype
        if self._states_dtype == np.int32:
            # CompiledModel caches its span maximum, so a churny ingest
            # stream (discard + re-ensure per observation) pays the O(span)
            # support scan once per compiled model, not per registration.
            if model.max_state >= np.iinfo(np.int32).max:
                self._states_dtype = np.dtype(np.intp)
        # A new object must join every built table whose step it covers
        # (including tables at t-1, whose successor offsets depend on the
        # support layout at t); tables elsewhere stay valid, so churny
        # workloads that keep introducing candidates don't repack the
        # whole horizon per query.
        if self._states_dtype != was_dtype:
            self._tables.clear()
        else:
            for t in [
                t
                for t in self._tables
                if model.covers(t) or model.covers(t + 1)
            ]:
                del self._tables[t]
        self._version += 1

    def discard(self, object_id: str) -> bool:
        """Evict one object's packed tables (no-op when not packed).

        The streaming-ingest invalidation hook: a mutated object's stale
        inverse-CDF tables must never answer draws, but evicting it must
        not disturb anyone else — only the fused per-timestep tables its
        span participates in are dropped (they rebuild lazily, exactly as
        after :meth:`ensure`), every other table and block stays intact,
        and its arena position is retired rather than reused.  A
        subsequent :meth:`ensure` re-packs the object's new model at a
        fresh position; draws stay bit-identical either way because each
        request consumes only its own RNG stream.
        """
        block = self._blocks.pop(object_id, None)
        if block is None:
            return False
        model = block.model
        for t in [
            t for t in self._tables if model.covers(t) or model.covers(t + 1)
        ]:
            del self._tables[t]
        self._version += 1
        # Retired positions accumulate as holes in the dense per-table
        # arrays; a long-running stream (discard + re-ensure per ingested
        # observation, forever) must not grow them without bound.  Once
        # holes outnumber the live blocks, renumber densely and drop the
        # cached tables (they are indexed by the old positions).  Draws
        # are position-independent — each request consumes only its own
        # RNG stream — so compaction never changes sampled worlds.
        if self._pos_counter - len(self._blocks) > max(8, len(self._blocks)):
            for pos, live in enumerate(
                sorted(self._blocks.values(), key=lambda b: b.pos)
            ):
                live.pos = pos
            self._pos_counter = len(self._blocks)
            self._tables.clear()
        return True

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
            ordered = sorted(self._blocks.values(), key=lambda b: b.order)
            members = [b for b in ordered if b.model.covers(t)]
            table = _StepTable(
                members, ordered, self._pos_counter, t, self._states_dtype,
                csr=self.native,
            )
            self.table_builds += 1
            if self.table_build_counter is not None:
                self.table_build_counter.inc()
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
    """Draw ``n`` posterior paths per request in one fused pass.

    Returns one ``(n, t_hi - t_lo + 1)`` state array per request, in
    request order — each bit-identical to what the per-object
    :meth:`CompiledModel.sample_paths` would have produced from the same
    generator (see the module docstring for why), and like it a view
    whose world axis is contiguous: all results share the one sweep buffer.

    A native arena (``SamplingArena(native=True)``) runs the whole sweep
    through the C kernel tier (:mod:`repro.markov.native`) — byte-identical
    results from the same RNG streams, one C call instead of a numpy sweep
    per timestep; it raises the tier's descriptive error when the kernels
    cannot load.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not requests:
        return []
    n_req = len(requests)
    pos = np.empty(n_req, dtype=np.intp)
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
        start = req.start_states
        if start is not None:
            start = np.asarray(start, dtype=np.intp)
            if start.shape != (n,):
                raise ValueError(
                    f"start_states must have shape ({n},), got {start.shape}"
                )
            resumed[r] = True
        blocks.append(block)
        starts.append(start)
        pos[r], a_arr[r], b_arr[r] = block.pos, a, b

    if arena.native:
        return native_tier.draw_arena(
            arena, requests, n, blocks, starts, pos, a_arr, b_arr, resumed
        )

    # Columnar layouts: request r owns row r (resp. column r) of every
    # tensor.  ``uniforms`` is time-major — block 0 holds the initial
    # variates of fresh requests, block j the transition variates of step
    # j — so a lockstep sweep reads each step's uniforms as a zero-copy
    # view.  ``rows`` carries every sample's *global* support row in the
    # current step's table (transition tables return next-step global rows
    # directly), ``buf`` collects the output columns.
    widths = b_arr - a_arr + 1
    u_blocks = widths - resumed
    uniforms = np.empty((int(u_blocks.max()), n_req, n))
    for r, req in enumerate(requests):
        k = int(u_blocks[r]) * n
        if k:
            # One bulk call consumes the per-object stream exactly like the
            # per-object sampler's sequence of rng.random(n) calls.
            uniforms[: int(u_blocks[r]), r] = req.rng.random(k).reshape(-1, n)
    buf = np.empty((n_req, int(widths.max()), n), dtype=arena.states_dtype)
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
            rows[r] = picks + table.sup_base[pos[r]]

    def transition(table: _StepTable, mv: np.ndarray, u2d: np.ndarray) -> None:
        # Narrow objects advance through the fused dense table; wide
        # objects (rows past the dense limit) through their own layer's
        # draw — the per-object arithmetic, so nothing depends on who
        # shares the arena.
        if table.wide:
            wide_sel = table.is_wide[pos[mv]]
            narrow = mv[~wide_sel]
        else:
            wide_sel = None
            narrow = mv
        if narrow.size:
            nu = u2d if wide_sel is None else u2d[~wide_sel]
            rows[narrow] = table.draw_transitions(
                rows[narrow].ravel(), nu.reshape(-1)
            ).reshape(narrow.size, n)
        if wide_sel is not None:
            for idx in np.flatnonzero(wide_sel):
                r = mv[idx]
                layer, nxt = table.wide[pos[r]]
                local = rows[r] - table.sup_base[pos[r]]
                rows[r] = layer.draw(local, u2d[idx]) + nxt

    for t in range(int(a_arr.min()), int(b_arr.max()) + 1):
        if lockstep:
            table = arena.table(t)
            if t == a0:
                if resumed[0]:
                    for r in every:
                        rows[r] = (
                            blocks[r].model.rows_of_states(t, starts[r])
                            + table.sup_base[pos[r]]
                        )
                else:
                    fused_initial(table, t, every)
            buf[:, t - a0] = table.states[rows]
            if t < b0:
                u2d = uniforms[t - a0 + (not resumed[0])]
                if table.wide:
                    transition(table, every, u2d)
                else:
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
                + table.sup_base[pos[r]]
            )
        buf[act, t - a_arr[act]] = table.states[rows[act]]
        mv = act[t < b_arr[act]]
        if mv.size:
            transition(table, mv, uniforms[t - a_arr[mv] + (~resumed[mv]), mv])

    return [buf[r, : int(widths[r])].T for r in range(n_req)]
