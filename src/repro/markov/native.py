"""Native (C) kernel tier: the production query path wherever it builds.

Five C kernels (compiled on demand via cffi, see :mod:`._native_kernels`)
replace the loops of the query and write paths that stay bound by numpy
dispatch or the interpreter: the possible-world sweep, the per-state
distance-table gather of ``repro.core.refine.gather_distances``, the
level-wise PCNN miner (:func:`mine_levels`, Algorithm 1 for every refined
object of an evaluation over packed world words, selected by
``repro.core.apriori.mine_objects`` for ``|T| <= 64``), the § 6 prune
scan (:func:`prune_scan`, all of ``USTTree.prune_many`` in one pass) and
the § 5.2 adaptation (:func:`adapt_sweep`, Algorithm 2's forward and
backward phases for every segment of one ``adaptation._sweep`` group,
with each derived stretch's :class:`~repro.markov.compiled.ModelTables`
laid out on the way, selected by ``adapt_many(..., native=True)``).  An
engine's ``backend`` picks them: ``"native"`` runs all five,
``"compiled"`` — or a box without a compiler — runs the numpy sweep and
gather, ``mine_world_masks``, the numpy scan and the numpy ``_sweep``
with ``_compile_stretches``, which stay the fallbacks and the
byte-identity references.  The sweep draws each request
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
tables once per arena block (:func:`_model_rows`, whose index checks run in
C), the windows, the gather's, miner's, scan's and adaptation's dtypes,
shapes and budgets once per call — and the kernels bounds-check the
indices Python cannot vouch for as cheaply (a gathered block's place in
the distance block and its state ids; an object's rows in the bound
table; every chain matrix's ``indptr`` and successors and the observed
states) and return a status: bad input is a ``ValueError``, never an
out-of-bounds access.  The miner grows its level and record buffers as
the levels grow, never to the budget's size, and the adaptation its
scratch and output streams as the supports grow.

Bit-reproducibility is non-negotiable and holds by construction: the
native sweep consumes each request's RNG stream through the *same*
``Generator.random`` calls as the numpy path (one block of
``u_blocks · n`` doubles per request, filled in request order) and every
draw repeats the numpy arithmetic on the same IEEE doubles — binary
searches and comparisons over identical arrays yield identical picks.
The miner counts the same worlds and divides ``count / n_worlds`` as the
Python miner does; the scan adds the numpy scan's rounded squares in its
order (built with ``-ffp-contract=off``, so no multiply fuses into the add
after it) and takes the root of the largest / smallest slot sum, which a
correctly rounded, monotone ``sqrt`` makes the numpy scan's max / min of
the slots' roots.  The adaptation repeats numpy's summation orders: a
column sum (``np.add.reduceat``) is ``x[0] + pairwise(x[1:])``, every
normaliser (``np.add.reduce`` of a slice) ``0.0 + pairwise(x)``, a CDF
(``np.cumsum``) strictly left to right, with numpy's pairwise sum
itself — left to right below 8 terms, eight accumulators up to 128,
halves split at a multiple of 8 above — and groups entries in numpy's
stable-sort order.
``backend="native"`` is therefore byte-identical to
``backend="compiled"``, exactly as ``"compiled"`` is to the row-dict walk
of ``tests/oracles/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

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

#: ``repro_check_models``' verdicts, by status.
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


def _model_rows(ffi, blocks: "list[_Block]") -> bytes:
    """Every block's ``repro_model`` — ``t_first`` and the addresses of its
    ``model.tables``, seven int64 — end to end: the kernel's struct array
    through a single ``from_buffer``.

    A block's row is built and checked at its first native draw and cached
    on the block as its 56 bytes (joined in a few µs per draw, where
    stacking arrays costs ≈ 0.6 µs per request): a model's tables never
    change (the model pins them), and a recompiled object is re-registered
    as a new block.  The cache stays
    on the engine-owned arena, not on the model, whose pickled copies
    would carry stale addresses.  Every array must be a contiguous vector
    of the dtype the kernel reads and ``row0`` hold one entry per tic of
    the span (plus the row count); ``repro_check_models`` then vouches
    for every index the sweep will read — one pass over each new block's
    tables, one C call for all of them.
    """
    fresh = list({id(block): block for block in blocks if block.native is None}.values())
    if fresh:
        rows = np.empty((len(fresh), 7), dtype=np.int64)
        dims = np.empty((len(fresh), 6), dtype=np.int64)
        for m, block in enumerate(fresh):
            model = block.model
            tables = model.tables
            rows[m, 0] = model.t_first
            for f, (name, array, dtype) in enumerate(
                zip(tables._fields, tables, _MODEL_DTYPES), start=1
            ):
                if array.dtype != dtype or array.ndim != 1 or not array.flags.c_contiguous:
                    _reject(f"{name} is not a contiguous {dtype} vector")
                rows[m, f] = int(ffi.cast("intptr_t", ffi.from_buffer("char[]", array)))
            n_tics = model.t_last - model.t_first + 1
            if tables.row0.size != n_tics + 1:
                _reject(
                    f"row0 does not hold one entry per tic of [{model.t_first}, {model.t_last}]"
                )
            dims[m] = (n_tics, *(array.size for array in tables[1:]))
        status = _module.lib.repro_check_models(
            ffi.from_buffer("repro_model[]", rows), len(fresh),
            ffi.from_buffer("int64_t[]", dims), ffi.new("int64_t *"),
        )
        if status:
            _reject(_MODEL_FAULTS[status])
        for block, row in zip(fresh, rows):
            block.native = row.tobytes()
    return b"".join([block.native for block in blocks])


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

    models = _model_rows(ffi, blocks)
    rows = np.empty((n_req, n), dtype=np.intp)
    for r in np.flatnonzero(resumed).tolist():
        model = blocks[r].model
        t = int(a_arr[r])
        rows[r] = model.rows_of_states(t, starts[r]) + model.tables.row0[t - model.t_first]

    # Destinations are tic-major ``(width, n)`` slabs — the numpy sweep's
    # buffer order, which the kernel fills one contiguous row per tic —
    # request after request in one buffer.
    width = int(widths.max())
    out = np.empty((n_req, width, n), dtype=states_dtype)

    entropy, consumed = lazy if lazy is not None else (None, None)

    def buf(ctype, array):
        return ffi.NULL if array is None else ffi.from_buffer(ctype, array)

    lib.repro_arena_sweep(
        n_req, n, buf("int64_t[]", a_arr), buf("int64_t[]", b_arr),
        buf("uint8_t[]", resumed.view(np.uint8)), buf("repro_model[]", models),
        buf("double[]", uniforms), max_blocks * n,
        buf("uint32_t[]", entropy), 0 if entropy is None else entropy.shape[1],
        buf("int64_t[]", consumed), buf("int64_t[]", rows),
        int(states_dtype == np.int32), ffi.from_buffer("char[]", out, require_writable=True),
        width * n,
    )
    if lazy is not None:
        for r, req in enumerate(requests):
            req.rng.consumed += int(u_blocks[r]) * n
    return [out[r, :w].T for r, w in enumerate(widths.tolist())]


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
    holds object ``cols[b]``'s states over its alive run of tics.  A
    ``per_state`` of one row is a static query's: every tic reads it.  One C
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
    if per_state.dtype != np.float64 or per_state.ndim != 2 or len(per_state) not in (1, n_times):
        raise ValueError(f"per_state must be a float64 ({n_times} or 1, states) table")
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
        per_state.shape[1] if len(per_state) == n_times else 0,
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


# ---------------------------------------------------------------------------
# level-wise PCNN mining (Algorithm 1)
# ---------------------------------------------------------------------------

def _count(name: str, value) -> int:
    """``value`` as a count the kernels take as ``int64`` — an integer
    ``>= 1`` (not a bool), capped at the largest ``int64``: a budget or
    depth past it can never bind — else a ``ValueError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return min(int(value), 2**63 - 1)


#: The widest time set the miner takes: a set's columns are one ``uint64``.
MAX_MINED_TIMES = 64


class Mined(NamedTuple):
    """What :func:`mine_levels` found, object by object.

    Object ``o``'s qualifying sets are records ``first[o]:first[o + 1]``,
    level by level, each level in lexicographic column order: record
    ``r`` is the set of record ``parent[r]`` (none when ``-1``) plus
    column ``column[r]``, seen in ``count[r]`` worlds.  ``certain[o]``
    holds the bits of the columns the shortcut left out; ``evaluated`` and
    ``levels`` are the per-object ``MiningStats`` counts.  ``exceeded`` is
    ``(object, level)`` where a budget ran out (nothing after it is
    mined), else ``None``.
    """

    first: list
    parent: list
    column: list
    count: list
    evaluated: list
    levels: list
    certain: list
    exceeded: tuple | None


def mine_levels(
    packed: np.ndarray,
    n_worlds: int,
    tau: float,
    max_candidates: int,
    use_certain_shortcut: bool,
) -> Mined:
    """Algorithm 1 for every object of one world pool, in one C call.

    ``packed`` is the ``np.packbits`` of a boolean ``(objects, times,
    worlds)`` NN indicator along its world axis: ``uint8`` of shape
    ``(objects, times, ⌈n_worlds / 8⌉)``, C-contiguous, at most
    :data:`MAX_MINED_TIMES` times.  The kernel keeps
    :func:`repro.core.apriori.mine_world_masks`' join, subset check,
    counts and budget; its record buffers grow with each level.  A wrong
    dtype, shape or budget is a ``ValueError`` before any C runs.
    """
    require_native()
    ffi, lib = _module.ffi, _module.lib
    if packed.dtype != np.uint8 or packed.ndim != 3 or not packed.flags.c_contiguous:
        raise ValueError("packed must be a C-contiguous uint8 (objects, times, bytes) array")
    n_objects, n_times, n_bytes = packed.shape
    n_worlds = _count("n_worlds", n_worlds)
    budget = _count("max_candidates", max_candidates)
    if not 1 <= n_times <= MAX_MINED_TIMES:
        raise ValueError(f"the miner takes 1 to {MAX_MINED_TIMES} times, got {n_times}")
    if n_bytes != -(-n_worlds // 8):
        raise ValueError(f"{n_worlds} worlds pack into {-(-n_worlds // 8)} bytes, got {n_bytes}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must be in (0, 1], got {tau!r}")
    first = ffi.new("int64_t[]", n_objects + 1)
    evaluated = ffi.new("int64_t[]", n_objects)
    levels = ffi.new("int64_t[]", n_objects)
    certain = ffi.new("uint64_t[]", n_objects)
    failed = ffi.new("int64_t[2]")
    out = ffi.new("repro_mined *")
    try:
        status = lib.repro_mine_levels(
            ffi.from_buffer("uint8_t[]", packed), n_objects, n_times, n_bytes,
            n_worlds, float(tau), budget, int(bool(use_certain_shortcut)),
            first, evaluated, levels, certain, failed, out,
        )
        if status == 2:
            raise MemoryError("the PCNN miner ran out of memory")
        n = out.n_records
        records = [ffi.unpack(p, n) if n else [] for p in (out.parent, out.column, out.count)]
        return Mined(
            ffi.unpack(first, n_objects + 1),
            *records,
            ffi.unpack(evaluated, n_objects),
            ffi.unpack(levels, n_objects),
            ffi.unpack(certain, n_objects),
            (failed[0], failed[1]) if status == 1 else None,
        )
    finally:
        lib.repro_mined_free(out)


# ---------------------------------------------------------------------------
# § 6 prune scan
# ---------------------------------------------------------------------------

class Scan(NamedTuple):
    """One :func:`prune_scan` pass: ``sel`` — the table positions of the
    objects alive at one of the times or more, in table order — their
    ``alive`` rows ``(O, T)``, bounds ``dmin`` / ``dmax`` ``(Q, O, T)``,
    the k-th smallest ``dmax`` per (query, tic) ``(Q, T)``, the
    ``candidate`` / ``influencer`` verdicts ``(Q, O)`` and the examined
    entries of the window's hull."""

    sel: np.ndarray
    alive: np.ndarray
    dmin: np.ndarray
    dmax: np.ndarray
    prune_dist: np.ndarray
    candidate: np.ndarray
    influencer: np.ndarray
    examined: int


def prune_scan(
    rect: np.ndarray,
    segs: np.ndarray,
    t_base: np.ndarray,
    t_hi: np.ndarray,
    row_ptr: np.ndarray,
    q: np.ndarray,
    times: np.ndarray,
    k: int,
) -> Scan:
    """``USTTree.prune_many``'s scan of its bound table in one C pass.

    The table arrays are the tree's own (see ``USTTree.__init__``): every
    one must be a C-contiguous array of the dtype and shape the kernel
    reads — else a ``ValueError`` before any C runs — and the kernel
    refuses (``ValueError``) an object of the window whose rows run past
    the table before it reads them.  ``q`` is ``(Q, len(times), d)``.
    """
    require_native()
    ffi, lib = _module.ffi, _module.lib
    ints = np.dtype(np.intp)
    if (
        rect.dtype != np.float64 or rect.ndim != 4 or rect.shape[0] != 2
        or rect.shape[3] < 1 or not rect.flags.c_contiguous
    ):
        raise ValueError("rect must be a C-contiguous float64 (2, slots, d, rows) table")
    _, n_slots, ndim, n_rows = rect.shape
    if segs.dtype != ints or segs.shape != (2, n_rows) or not segs.flags.c_contiguous:
        raise ValueError(f"segs must be a C-contiguous int64 (2, {n_rows}) table")
    n_objects = t_base.size
    for name, array, size in (("t_base", t_base, n_objects), ("t_hi", t_hi, n_objects),
                              ("row_ptr", row_ptr, n_objects + 1)):
        if array.dtype != ints or array.shape != (size,) or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous int64 vector of {size}")
    if times.dtype != ints or times.ndim != 1 or times.size < 1 or not times.flags.c_contiguous:
        raise ValueError("times must be a non-empty C-contiguous int64 vector")
    if (
        q.dtype != np.float64 or q.ndim != 3 or q.shape[1:] != (times.size, ndim)
        or not q.flags.c_contiguous
    ):
        raise ValueError(f"q must be a C-contiguous float64 (Q, {times.size}, {ndim}) array")
    k = _count("k", k)
    n_q, n_times = len(q), times.size
    sel = np.empty(n_objects, dtype=np.intp)
    alive = np.empty((n_objects, n_times), dtype=np.uint8)
    dmin = np.empty((n_q, n_objects, n_times))
    dmax = np.empty((n_q, n_objects, n_times))
    prune_dist = np.empty((n_q, n_times))
    candidate = np.empty((n_q, n_objects), dtype=np.uint8)
    influencer = np.empty((n_q, n_objects), dtype=np.uint8)
    sizes = np.zeros(2, dtype=np.intp)

    def buf(ctype, array):
        return ffi.from_buffer(ctype, array, require_writable=True)

    status = lib.repro_prune_scan(
        ffi.from_buffer("double[]", rect), n_slots, ndim, n_rows,
        ffi.from_buffer("int64_t[]", segs), ffi.from_buffer("int64_t[]", t_base),
        ffi.from_buffer("int64_t[]", t_hi), ffi.from_buffer("int64_t[]", row_ptr),
        n_objects, ffi.from_buffer("double[]", q), n_q,
        ffi.from_buffer("int64_t[]", times), n_times, k,
        buf("int64_t[]", sel), buf("uint8_t[]", alive), buf("double[]", dmin),
        buf("double[]", dmax), buf("double[]", prune_dist), buf("uint8_t[]", candidate),
        buf("uint8_t[]", influencer), buf("int64_t[]", sizes),
    )
    if status == 2:
        raise MemoryError("the prune scan ran out of memory")
    if status:
        raise ValueError("an object's rows run past the bound table")
    n_sel = int(sizes[0])
    return Scan(
        sel[:n_sel], alive[:n_sel].view(bool), dmin[:, :n_sel], dmax[:, :n_sel],
        prune_dist, candidate[:, :n_sel].view(bool), influencer[:, :n_sel].view(bool),
        int(sizes[1]),
    )


# ---------------------------------------------------------------------------
# Algorithm 2: the forward-backward sweep and its stretch compile
# ---------------------------------------------------------------------------

class Adapted(NamedTuple):
    """One :func:`adapt_sweep` call, segment-major.

    Segment ``b`` failed when ``status[b]`` is not 0 — 1: state
    ``detail[b, 1]`` of a cone has no successors at tic offset
    ``detail[b, 0]``; 2: its support dies out at offset ``detail[b, 0] +
    1``; 3: its closing fix has zero probability — and owns nothing of
    the streams.  Otherwise its parts are ``ints[offsets[b, 0]:offsets[b +
    1, 0]]`` and ``floats[offsets[b, 1]:offsets[b + 1, 1]]``, laid out as
    the kernel's ``repro_adapted`` says for its ``sizes[b]`` = (rows,
    entries, forward states), and ``compiled[b]`` is whether the
    stretch's :class:`~repro.markov.compiled.ModelTables` among them are
    valid (a cone whose transition targets a state its next marginal lost
    has none).
    """

    status: np.ndarray
    detail: np.ndarray
    compiled: np.ndarray
    sizes: np.ndarray
    offsets: np.ndarray
    ints: np.ndarray
    floats: np.ndarray


_ADAPT_FAULTS = {
    1: "a matrix's indptr is not monotone within [0, nnz]",
    2: "a matrix holds a successor outside its states",
    3: "an observed state is outside the chain's states",
}


def _pointers(ffi, ctype: str, arrays):
    """``arrays`` as one C array of pointers, one ``from_buffer`` per
    distinct array (a homogeneous chain walks one matrix every tic), and
    the handles that pin them: keep both for the call."""
    cdata: dict[int, object] = {}
    for array in arrays:
        if id(array) not in cdata:
            cdata[id(array)] = ffi.from_buffer(ctype + "[]", array)
    pointers = ffi.new(ctype + " *[]", [cdata[id(array)] for array in arrays])
    return pointers, list(cdata.values())


def _copied(ffi, pointer, size: int, dtype) -> np.ndarray:
    if not size:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(ffi.buffer(pointer, size * 8), dtype=dtype).copy()


def adapt_sweep(
    mats: "tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]",
    n_states: int,
    s0: np.ndarray,
    s1: np.ndarray,
) -> Adapted:
    """``adaptation._sweep`` and the stretch compile in one C call.

    ``mats[k]`` is the CSR ``(indptr, indices, data)`` applied between
    tic offsets ``k`` and ``k + 1`` of every segment (``intp`` / ``intp``
    / ``float64`` vectors, ``indptr`` of ``n_states + 1``); segment ``b``
    runs from state ``s0[b]`` to ``s1[b]`` (``-1``: an open cone).  A
    wrong dtype, shape or contiguity is a ``ValueError`` before any C
    runs; the kernel checks every matrix whole (monotone ``indptr``
    within the entries, successors within the states) and the observed
    states before it reads them.
    """
    require_native()
    ffi, lib = _module.ffi, _module.lib
    n_states = _count("n_states", n_states)
    gap = len(mats)
    if gap < 1:
        raise ValueError("a segment spans at least one tic")
    ints = np.dtype(np.intp)
    for indptr, indices, data in mats:
        if indptr.dtype != ints or indptr.shape != (n_states + 1,) or not indptr.flags.c_contiguous:
            raise ValueError(f"indptr must be a C-contiguous int64 vector of {n_states + 1}")
        if indices.dtype != ints or indices.ndim != 1 or not indices.flags.c_contiguous:
            raise ValueError("indices must be a C-contiguous int64 vector")
        if (
            data.dtype != np.float64 or data.shape != indices.shape
            or not data.flags.c_contiguous
        ):
            raise ValueError("data must be a C-contiguous float64 vector beside indices")
    n = len(s0)
    for name, array in (("s0", s0), ("s1", s1)):
        if array.dtype != ints or array.shape != (n,) or n < 1 or not array.flags.c_contiguous:
            raise ValueError(f"{name} must be a non-empty C-contiguous int64 vector of {n}")
    status = np.empty(n, dtype=np.intp)
    detail = np.zeros((n, 2), dtype=np.intp)
    compiled = np.empty(n, dtype=np.uint8)
    sizes = np.empty((n, 3), dtype=np.intp)
    offsets = np.empty((n + 1, 2), dtype=np.intp)
    nnz = np.array([m[1].size for m in mats], dtype=np.intp)
    out = ffi.new("repro_adapted *")
    (indptrs, pin_indptrs), (indices, pin_indices), (data, pin_data) = (
        _pointers(ffi, ctype, [m[part] for m in mats])
        for part, ctype in enumerate(("int64_t", "int64_t", "double"))
    )

    def buf(ctype, array):
        return ffi.from_buffer(ctype, array, require_writable=True)

    try:
        rc = lib.repro_adapt_sweep(
            indptrs, indices, data, ffi.from_buffer("int64_t[]", nnz), gap, n_states, n,
            ffi.from_buffer("int64_t[]", s0), ffi.from_buffer("int64_t[]", s1),
            buf("int64_t[]", status), buf("int64_t[]", detail),
            buf("uint8_t[]", compiled), buf("int64_t[]", sizes),
            buf("int64_t[]", offsets), out,
        )
        if rc == 4:
            raise MemoryError("the adaptation sweep ran out of memory")
        if rc == 5:  # pragma: no cover - the backward support is a forward one
            raise RuntimeError("the adaptation sweep lost a backward state")
        if rc:
            raise ValueError(f"adaptation rejected at the C boundary: {_ADAPT_FAULTS[rc]}")
        return Adapted(
            status, detail, compiled.view(bool), sizes, offsets,
            _copied(ffi, out.ints, out.n_ints, ints),
            _copied(ffi, out.floats, out.n_floats, np.float64),
        )
    finally:
        lib.repro_adapted_free(out)
