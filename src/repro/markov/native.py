"""Native (C) kernel tier: the production sampler wherever it builds.

The fused numpy arena (:func:`repro.markov.arena.sample_paths_arena`)
removed the per-*object* Python loop from refinement sampling, but three
inner loops remain dispatch-bound rather than FLOP-bound: the
per-timestep transition sweep (one numpy call per CDF column per tic),
the per-request initial inverse-CDF search, and the per-state
distance-table gather in ``repro.core.refine.gather_distances``.  This
module replaces all three with two C kernels (compiled on demand via
cffi, see :mod:`._native_kernels`): one fused ``(steps × samples)``
sweep that carries global row cursors across timesteps without returning
to Python per tic — including the wide-row fallback arithmetic — and one
single-pass distance gather.  Both move whole rows of ``n`` worlds: the
sweep fills tic-major ``(width, n)`` slabs and the gather reads them
into the ``(object, tic, world)`` distance block.

Availability is probed once, on first use: :func:`available` returns
``False`` when cffi or a C compiler is missing, on 32-bit platforms, or
when ``REPRO_DISABLE_NATIVE`` is set.  A ``QueryEngine`` left at its
default backend resolves to ``"native"`` exactly when the tier loads and
to the numpy sweep (``"compiled"``) otherwise; selecting
``backend="native"`` explicitly when the tier cannot load raises a
descriptive error instead (:func:`require_native`).

Every array crossing into C is checked where that is cheap — a step
table once per build (:func:`_check_step`), the chaining of step tables
and the gather's shapes once per call — and the kernels bounds-check the
indices Python cannot vouch for as cheaply (a row of a wide layer; a
gathered block's place in the distance block and its state ids) and
return a status: bad input is a ``ValueError``, never an out-of-bounds
access.

Bit-reproducibility is non-negotiable and holds by construction: the
native sweep consumes each request's RNG stream through the *same*
``Generator.random`` calls as the numpy path (one block of
``u_blocks · n`` doubles per request, filled in request order) and every
draw repeats the numpy arithmetic on the same IEEE doubles — binary
searches and comparisons over identical arrays yield identical picks.
``backend="native"`` is therefore byte-identical to
``backend="compiled"``, exactly as ``"compiled"`` is to the row-dict walk
of ``tests/oracles/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .arena import ArenaRequest, SamplingArena, _Block, _StepTable

__all__ = [
    "LazySeededRng",
    "available",
    "require_native",
    "seed_fill_ready",
    "unavailable_reason",
]

_module = None
_load_error: str | None = None
_probed = False
_seed_fill_ok: bool | None = None


def _load():
    global _module, _load_error, _probed
    if not _probed:
        _probed = True
        try:
            from . import _native_kernels

            _module = _native_kernels.load()
        except Exception as exc:  # noqa: BLE001 - any failure means "absent"
            _load_error = f"{type(exc).__name__}: {exc}"
    return _module


def available() -> bool:
    """Whether the native tier can serve draws (probes/builds on first call)."""
    return _load() is not None


def unavailable_reason() -> str | None:
    """Why the tier failed to load (``None`` when it is available)."""
    _load()
    return _load_error


def require_native() -> None:
    """Raise a descriptive error unless the native tier is loadable."""
    if _load() is None:
        raise RuntimeError(
            'backend="native" requires the compiled kernel tier, which '
            f"failed to load ({_load_error}). Install the build dependency "
            "with `pip install -e \".[native]\"` (cffi plus a C compiler on "
            "PATH; the first use compiles and caches the kernels), unset "
            "REPRO_DISABLE_NATIVE if set, or leave backend unset to fall "
            'back to backend="compiled" — results are bit-identical on '
            "either tier."
        )


# ---------------------------------------------------------------------------
# native seeding: skip Generator construction on the bulk path
# ---------------------------------------------------------------------------

class LazySeededRng:
    """Stand-in for ``Generator(PCG64(SeedSequence(entropy)))``.

    The native sweep reads ``entropy`` directly and runs seeding plus
    uniform generation in C (:func:`seed_fill_ready` guards the port),
    bumping ``consumed`` by the number of doubles drawn; :meth:`random`
    does the same for any other caller (the per-object sampler extending
    a cached segment).  Anything else — user code poking
    ``.bit_generator`` — falls through ``__getattr__`` to a real Generator
    advanced past the natively-consumed doubles, landing on exactly the
    stream state the eager construction would have.  ``random(k)``
    consumes one PCG64 step per double, so ``advance`` by the double count
    parks identically.  A copy or pickle continues the same stream.
    """

    __slots__ = ("entropy", "consumed", "_gen")

    def __init__(self, entropy: np.ndarray, consumed: int = 0) -> None:
        self.entropy = entropy
        self.consumed = consumed
        self._gen: np.random.Generator | None = None

    def __reduce__(self):
        if self._gen is not None:
            return self._gen.__reduce__()
        return type(self), (self.entropy, self.consumed)

    def _materialize(self) -> np.random.Generator:
        gen = self._gen
        if gen is None:
            gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(self.entropy))
            )
            if self.consumed:
                gen.bit_generator.advance(self.consumed)
            self._gen = gen
        return gen

    def random(self, size=None, dtype=np.float64, out=None):
        """``Generator.random``: seeded, jumped past ``consumed`` and filled
        by one ``repro_seed_fill`` call, then ``consumed`` bumped."""
        fill = np.empty(() if size is None else size) if out is None else out
        if (
            self._gen is not None
            or np.dtype(dtype) != np.float64
            or fill.dtype != np.float64
            or not fill.flags.c_contiguous
            or not seed_fill_ready()
        ):
            return self._materialize().random(size, dtype, out)
        ffi = _module.ffi
        _module.lib.repro_seed_fill(
            ffi.from_buffer("uint32_t[]", self.entropy), self.entropy.size, 1,
            ffi.new("int64_t *", int(self.consumed)), ffi.new("int64_t *", fill.size),
            ffi.from_buffer("double[]", fill, require_writable=True), fill.size,
        )
        self.consumed += fill.size
        return float(fill) if size is None and out is None else fill

    def __getattr__(self, name: str):
        # Only the public Generator API falls through: an unset slot or a
        # copy/pickle protocol probe must neither materialize nor recurse.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._materialize(), name)


def seed_fill_ready() -> bool:
    """Whether the C seeding + uniform-generation path may be trusted.

    The first call cross-checks the C SeedSequence/PCG64 port against
    numpy itself over several entropies (varied word counts and resume
    offsets).  Any mismatch — say a future numpy changes its seeding —
    permanently disables the fast path for the process; callers then
    materialize real Generators and bit-reproducibility still holds.
    """
    global _seed_fill_ok
    if _seed_fill_ok is None:
        _seed_fill_ok = _load() is not None and _seed_fill_selfcheck()
    return _seed_fill_ok


def _seed_fill_selfcheck() -> bool:
    ffi, lib = _module.ffi, _module.lib
    check = np.random.default_rng(20130705)
    for n_words, consumed, count in ((1, 0, 3), (7, 0, 16), (11, 5, 9)):
        ent = check.integers(0, 2**32, size=n_words, dtype=np.uint32)
        ref_gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(ent))
        )
        ref = ref_gen.random(consumed + count)[consumed:]
        got = np.empty(count)
        lib.repro_seed_fill(
            ffi.from_buffer("uint32_t[]", ent),
            n_words,
            1,
            ffi.from_buffer(
                "int64_t[]", np.array([consumed], dtype=np.intp)
            ),
            ffi.from_buffer("int64_t[]", np.array([count], dtype=np.intp)),
            ffi.from_buffer("double[]", got, require_writable=True),
            count,
        )
        if not np.array_equal(ref, got):  # pragma: no cover - safety net
            return False
    return True


def _collect_lazy_entropy(requests):
    """Entropy words + consumed counts for an all-lazy request batch.

    Returns ``(entropy_matrix, consumed)`` when *every* request carries
    an unmaterialized :class:`LazySeededRng` of equal entropy width (the
    engine always produces such batches) and the C seeder is verified;
    anything else — real Generators, a handle someone already
    materialized, mixed widths — returns ``None`` and the caller
    pre-draws uniforms through the Generator API instead.
    """
    if not seed_fill_ready():
        return None
    first = requests[0].rng
    if type(first) is not LazySeededRng or first._gen is not None:
        return None
    n_words = first.entropy.size
    entropy = np.empty((len(requests), n_words), dtype=np.uint32)
    for r, req in enumerate(requests):
        rng = req.rng
        if (
            type(rng) is not LazySeededRng
            or rng._gen is not None
            or rng.entropy.size != n_words
        ):
            return None
        entropy[r] = rng.entropy
    consumed = np.array(
        [req.rng.consumed for req in requests], dtype=np.intp
    )
    return entropy, consumed


# ---------------------------------------------------------------------------
# fused arena sweep
# ---------------------------------------------------------------------------

def _check_step(table: "_StepTable", states_dtype: np.dtype) -> None:
    """Reject a step table the C sweep would read out of bounds.

    Once per table build, vectorized: states in the dtype the sweep
    writes; row pointers running from 0 to the CDF length without
    decreasing (a wide layer's rows non-empty: its clamp cannot leave an
    empty row); every successor a row of the next step's table; CDF rows
    non-decreasing.
    """
    def fail(what: str):
        raise ValueError(f"arena step table rejected at the C boundary: {what}")

    if table.states.dtype != states_dtype:
        fail(f"states are {table.states.dtype}, the sweep writes {states_dtype}")
    parts = [
        (layer.cdf_flat, layer.indptr, layer.local_next, base, 0)
        for layer, base in table.wide.values()
    ]
    if table.csr_cdf is not None:
        parts.append((table.csr_cdf, table.csr_indptr, table.csr_next, 0, 1))
    for cdf, indptr, succ, base, trailing in parts:
        sizes = np.diff(indptr)
        if (
            cdf.dtype != np.float64
            or indptr.dtype != np.intp
            or succ.dtype not in ((np.int32, np.intp) if trailing else (np.intp,))
        ):
            fail("a CDF, row pointer or successor array has the wrong dtype")
        if indptr[0] != 0 or indptr[-1] != cdf.size or (sizes < 1 - trailing).any():
            fail("row pointers do not run from 0 to the CDF length (or a wide row is empty)")
        if succ.size != cdf.size + trailing * sizes.size:
            fail("the successor count does not match the rows")
        if succ.size and (succ.min() + base < 0 or succ.max() + base >= table.n_next):
            fail(f"a successor is outside the next step's {table.n_next} rows")
        falling = np.diff(cdf) < 0
        cut = indptr[1:-1]
        falling[cut[(cut > 0) & (cut < cdf.size)] - 1] = False
        if falling.any():
            fail("a CDF row decreases")


def _step_struct(ffi, table: "_StepTable", states_dtype: np.dtype):
    """One ``repro_step`` wrapping a C-sweep :class:`_StepTable`'s arrays.

    Checked (:func:`_check_step`) and cached on the table when first
    wrapped — tables are themselves cached across draws and rebuilt on
    arena changes, so the lifecycle is already right.  The keepalive list
    pins every numpy buffer and cffi pointer the struct references;
    callers must hold the returned pair for the duration of the kernel
    call.
    """
    cached = table._native
    if cached is not None:
        return cached
    _check_step(table, states_dtype)
    keep: list = []

    def buf(array, ctype):
        p = ffi.from_buffer(ctype, array)
        keep.append((array, p))
        return p

    def ints(values):
        return buf(np.asarray(values, dtype=np.intp), "int64_t[]")

    def pointers(ctype, values):
        p = ffi.new(ctype, values)
        keep.append(p)
        return p

    st = ffi.new("repro_step *")  # zero-initialized
    keep.append(st)
    if table.states.dtype == np.dtype(np.int32):
        st.states32 = buf(table.states, "int32_t[]")
    else:
        st.states64 = buf(table.states, "int64_t[]")
    st.sup_base = buf(table.sup_base, "int64_t[]")
    if table.csr_cdf is not None:
        st.csr_cdf = buf(table.csr_cdf, "double[]")
        st.csr_indptr = buf(table.csr_indptr, "int64_t[]")
        if table.csr_next.dtype == np.dtype(np.int32):
            st.next32 = buf(table.csr_next, "int32_t[]")
        else:
            st.next64 = buf(table.csr_next, "int64_t[]")
    if table.wide:
        st.is_wide = buf(table.is_wide.view(np.uint8), "uint8_t[]")
        positions = sorted(table.wide)
        layers = [table.wide[pos][0] for pos in positions]
        st.n_wide = len(positions)
        st.wide_pos = ints(positions)
        st.wide_aug = pointers(
            "double *[]",
            [buf(np.ascontiguousarray(lay.aug), "double[]") for lay in layers],
        )
        st.wide_auglen = ints([lay.aug.size for lay in layers])
        st.wide_rows = ints([lay.indptr.size - 1 for lay in layers])
        st.wide_indptr = pointers(
            "int64_t *[]", [buf(lay.indptr, "int64_t[]") for lay in layers]
        )
        st.wide_next = pointers(
            "int64_t *[]", [buf(lay.local_next, "int64_t[]") for lay in layers]
        )
        st.wide_nextbase = ints([table.wide[pos][1] for pos in positions])
        st.wide_supbase = ints([table.sup_base[pos] for pos in positions])
    table._native = (st, keep)
    return table._native


def draw_arena(
    arena: "SamplingArena",
    requests: "list[ArenaRequest]",
    n: int,
    blocks: "list[_Block]",
    starts: list[np.ndarray | None],
    pos: np.ndarray,
    a_arr: np.ndarray,
    b_arr: np.ndarray,
    resumed: np.ndarray,
) -> list[np.ndarray]:
    """Native back half of :func:`sample_paths_arena` (validated inputs).

    Consumes each request's RNG stream exactly like the numpy path —
    ``u_blocks · n`` doubles per request, in stream order.  An all-lazy
    batch (the engine's native bulk path) never touches a ``Generator``:
    the C sweep seeds each stream from its entropy words and draws the
    doubles on the fly; any other batch pre-draws one bulk ``random``
    fill per request, then the sweep runs in one C call either way.
    """
    require_native()
    ffi, lib = _module.ffi, _module.lib
    n_req = len(requests)
    widths = b_arr - a_arr + 1
    u_blocks = widths - resumed
    max_blocks = int(u_blocks.max())
    # Uniform source: an all-lazy batch ships its entropy words and the
    # C sweep seeds + draws each request's stream on the fly (uniforms
    # shrinks to a one-block scratch buffer); otherwise pre-draw
    # request-major blocks — rng.random's out= fills the same doubles
    # from the stream as an allocating call.
    uniforms = None
    lazy = _collect_lazy_entropy(requests) if max_blocks else None
    if lazy is not None:
        uniforms = np.empty(n)
    elif max_blocks:
        uniforms = np.empty((n_req, max_blocks, n))
        for r, req in enumerate(requests):
            k = int(u_blocks[r])
            if k:
                req.rng.random(out=uniforms[r, :k].reshape(-1))

    t0 = int(a_arr.min())
    n_steps = int(b_arr.max()) - t0 + 1
    # Steps no request covers (disjoint windows) stay zeroed placeholder
    # structs, matching the numpy sweep's idle gap tics.
    cover = np.zeros(n_steps + 1, dtype=np.intp)
    np.add.at(cover, a_arr - t0, 1)
    np.add.at(cover, b_arr - t0 + 1, -1)
    active = np.cumsum(cover[:-1]) > 0
    keep: list = []
    tables: list = []  # pins tables against cache eviction mid-call
    steps_c = ffi.new("repro_step[]", n_steps)
    states_dtype = arena.states_dtype
    for i in np.flatnonzero(active):
        table = arena.table(t0 + int(i))
        if i and active[i - 1] and tables[-1].n_next != table.states.size:
            raise ValueError(f"step tables {t0 + i - 1} and {t0 + i} disagree on rows")
        tables.append(table)
        st, st_keep = _step_struct(ffi, table, states_dtype)
        steps_c[i] = st[0]
        keep.append(st_keep)

    rows = np.empty(n_req * n, dtype=np.intp)
    rows2d = rows.reshape(n_req, n)
    init_ptrs = ffi.new("double *[]", n_req)
    init_len = np.zeros(n_req, dtype=np.intp)
    for r in range(n_req):
        t_a = int(a_arr[r])
        if resumed[r]:
            table = arena.table(t_a)
            rows2d[r] = (
                blocks[r].model.rows_of_states(t_a, starts[r])
                + table.sup_base[pos[r]]
            )
        else:
            block = blocks[r]
            cached = block.init_native.get(t_a)
            if cached is None:
                _, cdf = block.model.initial_table(t_a)
                cdf = np.ascontiguousarray(cdf)
                cached = (cdf, ffi.from_buffer("double[]", cdf))
                block.init_native[t_a] = cached
            init_ptrs[r] = cached[1]
            init_len[r] = cached[0].size

    # Destinations are tic-major ``(width, n)`` slabs — the numpy sweep's
    # buffer order, which the kernel fills one contiguous row per tic.
    block = np.empty((n_req, int(widths.max()), n), dtype=states_dtype)
    slabs = [block[r, : int(widths[r])] for r in range(n_req)]
    out_ptrs = ffi.new("void *[]", n_req)
    for r, slab in enumerate(slabs):
        p = ffi.from_buffer("char[]", slab, require_writable=True)
        keep.append(p)
        out_ptrs[r] = p

    status = lib.repro_arena_sweep(
        t0,
        n_steps,
        n_req,
        n,
        ffi.from_buffer("int64_t[]", a_arr),
        ffi.from_buffer("int64_t[]", b_arr),
        ffi.from_buffer("uint8_t[]", resumed.view(np.uint8)),
        ffi.from_buffer("int64_t[]", pos),
        ffi.from_buffer("double[]", uniforms.reshape(-1))
        if uniforms is not None
        else ffi.NULL,
        max_blocks * n,
        ffi.from_buffer("uint32_t[]", lazy[0].reshape(-1))
        if lazy is not None
        else ffi.NULL,
        lazy[0].shape[1] if lazy is not None else 0,
        ffi.from_buffer("int64_t[]", lazy[1])
        if lazy is not None
        else ffi.NULL,
        init_ptrs,
        ffi.from_buffer("int64_t[]", init_len),
        ffi.from_buffer("int64_t[]", rows),
        steps_c,
        1 if states_dtype == np.dtype(np.int32) else 0,
        out_ptrs,
    )
    if status:
        raise ValueError(
            "a sampled row left its object's wide layer (a successor outside "
            "the object's own next-step support)"
        )
    if lazy is not None:
        for r, req in enumerate(requests):
            req.rng.consumed += int(u_blocks[r]) * n
    return [slab.T for slab in slabs]


# ---------------------------------------------------------------------------
# per-state distance-table gather
# ---------------------------------------------------------------------------

_GATHER_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def can_gather_rows(blocks: "list[np.ndarray]") -> bool:
    """Whether :func:`gather_distance_rows` handles these state blocks.

    Each must be a C-contiguous tic-major ``(tics, n)`` block of a
    gatherable dtype — what the transpose of any sampler output is (the
    arena writes int32 states, the per-object sampler intp; one call may
    mix them); a world-major copy made on the way here fails the check
    and silently takes the numpy gather instead.
    """
    if not available() or not blocks:
        return False
    shape = blocks[0].shape[1:]
    return len(shape) == 1 and all(
        b.dtype in _GATHER_DTYPES and b.flags.c_contiguous and b.shape[1:] == shape
        for b in blocks
    )


def gather_distance_rows(
    per_state: np.ndarray,
    blocks: "list[np.ndarray]",
    cols: np.ndarray,
    first_tic: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """``out[cols[b], first_tic[b] + j, :] = per_state[first_tic[b] + j, blocks[b][j, :]]``.

    ``out`` is the C-contiguous ``(objects, tics, n)`` distance block
    (prefilled with ``inf`` where some object is not alive); block ``b``
    holds object ``cols[b]``'s states over its alive run of tics.  One C
    pass of contiguous row gathers; pure movement of identical doubles, so
    values are bit-identical to the numpy gather.  ``blocks`` must pass
    :func:`can_gather_rows` (the caller's choice of gather); shapes are
    checked here, each block's place in ``out`` and its state ids by the
    kernel: a mismatch is a ``ValueError`` before any out-of-bounds access.
    """
    require_native()
    ffi, lib = _module.ffi, _module.lib
    if out.dtype != np.float64 or out.ndim != 3 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 (objects, tics, n) block")
    n_objects, n_times, n = out.shape
    per_state = np.ascontiguousarray(per_state)
    cols = np.ascontiguousarray(cols, dtype=np.intp)
    first_tic = np.ascontiguousarray(first_tic, dtype=np.intp)
    if per_state.dtype != np.float64 or per_state.ndim != 2 or len(per_state) != n_times:
        raise ValueError(f"per_state must be a float64 ({n_times}, states) table")
    if blocks[0].shape[1] != n:  # the rest of can_gather_rows(blocks) holds
        raise ValueError(f"state blocks must be (tics, {n}) arrays")
    if not cols.shape == first_tic.shape == (len(blocks),):
        raise ValueError("cols and first_tic must hold one entry per state block")
    block_rows = np.array([len(b) for b in blocks], dtype=np.intp)
    is32 = np.array([b.dtype == np.int32 for b in blocks], dtype=np.uint8)
    pointers = [ffi.from_buffer("char[]", b) for b in blocks]  # pins them
    status = lib.repro_distance_gather_rows(
        ffi.from_buffer("double[]", per_state),
        n_times,
        per_state.shape[1],
        ffi.new("void *[]", pointers),
        ffi.from_buffer("uint8_t[]", is32),
        len(blocks),
        ffi.from_buffer("int64_t[]", block_rows),
        ffi.from_buffer("int64_t[]", first_tic),
        ffi.from_buffer("int64_t[]", cols),
        n_objects,
        n,
        ffi.from_buffer("double[]", out, require_writable=True),
    )
    if status == 2:
        raise ValueError("a state block does not fit inside out")
    if status:
        raise ValueError(
            f"a sampled state id is outside the distance table's "
            f"{per_state.shape[1]} states"
        )
    return out
