"""Native (C) kernel tier: the production sampler wherever it builds.

Two C kernels (compiled on demand via cffi, see :mod:`._native_kernels`)
replace the loops of refinement that stay dispatch-bound in numpy: the
possible-world sweep and the per-state distance-table gather of
``repro.core.refine.gather_distances``.  The sweep draws each request
from its own compiled model's tables
(:class:`~repro.markov.compiled.ModelTables`, one flat CSR per model,
laid out when the model's stretches compile): the initial draw and every
transition of the request's window run in one C pass that carries
model-row cursors across tics without returning to Python.  No tables
are fused across objects — the § 5 worlds of one object are drawn
independently of every other object's, so there is nothing to share.
Both kernels move whole rows of ``n`` worlds: the sweep fills tic-major
``(width, n)`` slabs and the gather reads them into the
``(object, tic, world)`` distance block.

Availability is probed once, on first use: :func:`available` returns
``False`` when cffi or a C compiler is missing, on 32-bit platforms, or
when ``REPRO_DISABLE_NATIVE`` is set.  A ``QueryEngine`` left at its
default backend resolves to ``"native"`` exactly when the tier loads and
to the numpy sweep (``"compiled"``) otherwise; selecting
``backend="native"`` explicitly when the tier cannot load raises a
descriptive error instead (:func:`require_native`).

Every array crossing into C is checked where that is cheap — a model's
tables once per arena block (:func:`_model_struct`, whose index checks run in
C), the windows and the gather's shapes once per call — and the gather
kernel bounds-checks the indices Python cannot vouch for as cheaply (a
gathered block's place in the distance block and its state ids) and
returns a status: bad input is a ``ValueError``, never an out-of-bounds
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
    from .arena import ArenaRequest, _Block

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
    does the same for any other caller.  Anything else — user code poking
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
# arena sweep
# ---------------------------------------------------------------------------

#: What the kernel reads, field by field of :class:`~repro.markov.compiled.ModelTables`.
_MODEL_DTYPES = tuple(
    np.dtype(d) for d in (np.intp, np.intp, np.float64, np.float64, np.intp, np.intp)
)

#: ``repro_check_model``'s verdicts, by status.
_MODEL_FAULTS = {
    1: "row0 does not run from 0 to the row count through non-empty tics",
    2: "init_cdf is not aligned with states",
    3: "indptr does not run from 0 to the CDF length over the transition rows",
    4: "the successor count does not match the rows",
    5: "a successor is outside the next tic's rows",
    6: "a CDF row decreases",
}


def _reject(what: str):
    raise ValueError(f"model tables rejected at the C boundary: {what}")


def _model_struct(ffi, block: "_Block"):
    """The ``repro_model`` over an arena block's ``model.tables``, checked.

    Built at the block's first native draw and cached on the block: a
    model's tables never change, and a recompiled object is re-registered
    as a new block.  The cache stays on the engine-owned arena so models
    (which travel with pickled database objects) hold no cffi handles.
    Every array must be a contiguous vector of the dtype the kernel reads
    and ``row0`` hold one entry per tic of the span (plus the row count);
    ``repro_check_model`` then vouches for every index the sweep will
    read — one pass over the tables, in C.  The cached pair is
    ``(struct, keepalive)``; the keepalive list pins every numpy buffer
    and cffi pointer the struct references.
    """
    if block.native is not None:
        return block.native
    model = block.model
    tables = model.tables
    md = ffi.new("repro_model *")
    keep: list = [tables, md]
    md.t_first = model.t_first
    for name, array, dtype in zip(tables._fields, tables, _MODEL_DTYPES):
        if array.dtype != dtype or array.ndim != 1 or not array.flags.c_contiguous:
            _reject(f"{name} is not a contiguous {dtype} vector")
        p = ffi.from_buffer("double[]" if dtype == np.float64 else "int64_t[]", array)
        keep.append(p)
        setattr(md, name, p)
    n_tics = model.t_last - model.t_first + 1
    if tables.row0.size != n_tics + 1:
        _reject(f"row0 does not hold one entry per tic of [{model.t_first}, {model.t_last}]")
    status = _module.lib.repro_check_model(
        md, n_tics, tables.states.size, tables.init_cdf.size, tables.cdf.size,
        tables.indptr.size, tables.next.size,
    )
    if status:
        _reject(_MODEL_FAULTS[status])
    block.native = (md, keep)
    return block.native


def draw_arena(
    states_dtype: np.dtype,
    requests: "list[ArenaRequest]",
    n: int,
    blocks: "list[_Block]",
    starts: list[np.ndarray | None],
    a_arr: np.ndarray,
    b_arr: np.ndarray,
    resumed: np.ndarray,
) -> list[np.ndarray]:
    """Native back half of :func:`sample_paths_arena` (validated windows).

    Request ``r`` draws from ``blocks[r].model``'s own tables.  Consumes each
    request's RNG stream exactly like the numpy path — ``u_blocks · n``
    doubles per request, in stream order.  An all-lazy batch (the
    engine's native path) never touches a ``Generator``: the C sweep
    seeds each stream from its entropy words and draws the doubles on the
    fly; any other batch pre-draws one bulk ``random`` fill per request,
    then the sweep runs in one C call either way.
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

    keep: list = []
    models_c = ffi.new("repro_model *[]", n_req)
    rows = np.empty((n_req, n), dtype=np.intp)
    for r, block in enumerate(blocks):
        md, md_keep = _model_struct(ffi, block)
        keep.append(md_keep)
        models_c[r] = md
        if resumed[r]:
            model = block.model
            t = int(a_arr[r])
            rows[r] = (
                model.rows_of_states(t, starts[r])
                + model.tables.row0[t - model.t_first]
            )

    # Destinations are tic-major ``(width, n)`` slabs — the numpy sweep's
    # buffer order, which the kernel fills one contiguous row per tic.
    out = np.empty((n_req, int(widths.max()), n), dtype=states_dtype)
    slabs = [out[r, : int(widths[r])] for r in range(n_req)]
    out_ptrs = ffi.new("void *[]", n_req)
    for r, slab in enumerate(slabs):
        p = ffi.from_buffer("char[]", slab, require_writable=True)
        keep.append(p)
        out_ptrs[r] = p

    entropy, consumed = lazy if lazy is not None else (None, None)

    def buf(ctype, array):
        return ffi.NULL if array is None else ffi.from_buffer(ctype, array)

    lib.repro_arena_sweep(
        n_req, n, buf("int64_t[]", a_arr), buf("int64_t[]", b_arr),
        buf("uint8_t[]", resumed.view(np.uint8)), models_c,
        buf("double[]", uniforms), max_blocks * n,
        buf("uint32_t[]", entropy), 0 if entropy is None else entropy.shape[1],
        buf("int64_t[]", consumed), buf("int64_t[]", rows),
        int(states_dtype == np.int32), out_ptrs,
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
    gatherable dtype — what the transpose of any sampler output is (int32
    or int64 states; one call may mix them); a world-major copy made on the way here fails the check
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
