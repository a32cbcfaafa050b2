"""Build/load machinery for the native (C) arena kernels.

This module owns the C source of the two kernels behind
:mod:`repro.markov.native` — the fused arena sweep and the per-state
distance-table row gather — and compiles them on first use through cffi's
API mode (out-of-line).  The build artifact is cached on disk keyed by a
hash of the source, so a process pays the compiler exactly once per
kernel revision; every later import (including serve worker processes)
just ``dlopen``\\ s the cached extension.

Nothing here is imported eagerly: :func:`load` is called lazily by
``native._load`` and any failure — cffi missing, no C compiler, 32-bit
platform, ``REPRO_DISABLE_NATIVE`` set — is reported upward as an
exception, which the caller turns into "tier unavailable".  The numpy
path never depends on this module.

Environment knobs:

``REPRO_DISABLE_NATIVE``
    Any non-empty value refuses to load the tier (the CI fallback leg
    and the fallback tests use this to simulate a box without the
    ``[native]`` extra).
``REPRO_NATIVE_CACHE``
    Overrides the build-cache directory (default
    ``$XDG_CACHE_HOME/repro-native`` or ``~/.cache/repro-native``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import tempfile
from pathlib import Path

_MODULE_BASENAME = "_repro_native"

# The artifact is cached per machine (never shipped), so tuning for the
# build host is safe; -march=native lets the branchless count loops
# vectorize.  A compiler that rejects these options simply reports the
# tier unavailable (and the numpy path keeps serving).
_COMPILE_ARGS = ("-O3", "-march=native", "-funroll-loops")

# The cdef mirrors the definitions inside SOURCE; cffi checks them against
# the real compiled layout, so a drift between the two fails the build
# loudly instead of corrupting memory.
CDEF = """
typedef struct {
    double   *csr_cdf;
    int64_t  *csr_indptr;
    int32_t  *next32;
    int64_t  *next64;
    int32_t  *states32;
    int64_t  *states64;
    int64_t  *sup_base;
    uint8_t  *is_wide;
    int64_t   n_wide;
    int64_t  *wide_pos;
    double  **wide_aug;
    int64_t  *wide_auglen;
    int64_t  *wide_rows;
    int64_t **wide_indptr;
    int64_t **wide_next;
    int64_t  *wide_nextbase;
    int64_t  *wide_supbase;
} repro_step;

int repro_arena_sweep(
    int64_t t0, int64_t n_steps, int64_t n_req, int64_t n,
    int64_t *a, int64_t *b, uint8_t *resumed, int64_t *pos,
    double *uniforms, int64_t u_stride,
    uint32_t *entropy, int64_t ent_words, int64_t *rng_consumed,
    double **init_cdf, int64_t *init_len,
    int64_t *rows, repro_step *steps, int out_is32,
    void **out_ptrs);

int repro_distance_gather_rows(
    double *per_state, int64_t n_times, int64_t n_states,
    void **blocks, uint8_t *blocks_is32, int64_t n_blocks,
    int64_t *block_rows, int64_t *first_tic, int64_t *cols,
    int64_t n_objects, int64_t n, double *out);

void repro_seed_fill(
    uint32_t *entropy, int64_t n_words, int64_t n_req,
    int64_t *consumed, int64_t *counts,
    double *out, int64_t out_stride);
"""

SOURCE = """
#include <stdint.h>

typedef struct {
    double   *csr_cdf;       /* concatenated per-row raw CDFs (row-major)    */
    int64_t  *csr_indptr;    /* n_rows + 1 row pointers into csr_cdf         */
    int32_t  *next32;        /* concatenated successors, one extra entry per */
    int64_t  *next64;        /* row; exactly one of next32/next64 is set     */
    int32_t  *states32;      /* fused support states (one of the two set)    */
    int64_t  *states64;
    int64_t  *sup_base;      /* arena position -> global row base            */
    uint8_t  *is_wide;       /* arena position -> wide flag (NULL: none)     */
    int64_t   n_wide;        /* parallel arrays describing the wide blocks:  */
    int64_t  *wide_pos;      /*   arena position of each wide block          */
    double  **wide_aug;      /*   augmented CDF (cdf + row)                  */
    int64_t  *wide_auglen;
    int64_t  *wide_rows;     /*   row count of each wide layer               */
    int64_t **wide_indptr;
    int64_t **wide_next;     /*   local successors in the next layer         */
    int64_t  *wide_nextbase; /*   global row base of the next step's table   */
    int64_t  *wide_supbase;  /*   global row base of this step's table       */
} repro_step;

/* numpy's searchsorted(arr, v, side="right"): index of the first entry
 * strictly greater than v.  Identical IEEE comparisons on identical
 * doubles give identical picks. */
static int64_t repro_upper_bound(const double *arr, int64_t len, double v)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (arr[mid] <= v) lo = mid + 1; else hi = mid;
    }
    return lo;
}

/* ------------------------------------------------------------------ *
 * Per-request seeding + uniform generation: a C port of numpy's
 * SeedSequence entropy pool (bit_generator.pyx) feeding PCG64
 * (XSL-RR 128/64), producing the exact double stream that
 * Generator(PCG64(SeedSequence(entropy))).random() would.  This lets
 * the sweep skip constructing thousands of Generator objects per draw
 * epoch; the Python side verifies the port against numpy once per
 * process before trusting it (native.seed_fill_ready) and falls back
 * permanently on any mismatch.
 * ------------------------------------------------------------------ */

typedef __uint128_t repro_u128;

#define REPRO_PCG_MULT \\
    ((((repro_u128) 0x2360ed051fc65da4ULL) << 64) | 0x4385df649fccf645ULL)

static uint32_t repro_ss_hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= 0x931e8875u;
    value *= *hash_const;
    value ^= value >> 16;
    return value;
}

static uint32_t repro_ss_mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    result ^= result >> 16;
    return result;
}

/* SeedSequence(entropy).generate_state(4, uint64): mix the entropy
 * words into the 4-word pool, then cycle the pool through the output
 * hash; uint64 words assemble little-endian from uint32 pairs. */
static void repro_ss_state4(
    const uint32_t *entropy, int64_t n_words, uint64_t *out4)
{
    uint32_t pool[4];
    uint32_t hash_const = 0x43b0d7e5u;
    uint32_t words[8];
    int64_t i, i_src, i_dst;
    for (i = 0; i < 4; i++)
        pool[i] = repro_ss_hashmix(
            i < n_words ? entropy[i] : 0u, &hash_const);
    for (i_src = 0; i_src < 4; i_src++)
        for (i_dst = 0; i_dst < 4; i_dst++)
            if (i_src != i_dst)
                pool[i_dst] = repro_ss_mix(
                    pool[i_dst],
                    repro_ss_hashmix(pool[i_src], &hash_const));
    for (i_src = 4; i_src < n_words; i_src++)
        for (i_dst = 0; i_dst < 4; i_dst++)
            pool[i_dst] = repro_ss_mix(
                pool[i_dst],
                repro_ss_hashmix(entropy[i_src], &hash_const));
    hash_const = 0x8b51f9ddu;
    for (i = 0; i < 8; i++) {
        uint32_t value = pool[i & 3];
        value ^= hash_const;
        hash_const *= 0x58f38dedu;
        value *= hash_const;
        value ^= value >> 16;
        words[i] = value;
    }
    for (i = 0; i < 4; i++)
        out4[i] = (uint64_t) words[2 * i]
                | ((uint64_t) words[2 * i + 1] << 32);
}

/* Seed PCG64 from entropy words and jump the stream forward by
 * ``consumed`` doubles (the O(log k) LCG advance, so resumed requests
 * land exactly where their earlier draws left off). */
static void repro_pcg_seed(
    const uint32_t *entropy, int64_t n_words, uint64_t consumed,
    repro_u128 *state_out, repro_u128 *inc_out)
{
    uint64_t seed4[4];
    repro_u128 initstate, inc, state;
    repro_ss_state4(entropy, n_words, seed4);
    initstate = (((repro_u128) seed4[0]) << 64) | seed4[1];
    inc = ((((repro_u128) seed4[2]) << 64) | seed4[3]) << 1 | 1;
    state = inc;                          /* srandom: step from state 0 */
    state += initstate;
    state = state * REPRO_PCG_MULT + inc; /* second step                */
    if (consumed) {
        repro_u128 acc_mult = 1, acc_plus = 0;
        repro_u128 cur_mult = REPRO_PCG_MULT, cur_plus = inc;
        uint64_t delta = consumed;
        while (delta) {
            if (delta & 1) {
                acc_mult *= cur_mult;
                acc_plus = acc_plus * cur_mult + cur_plus;
            }
            cur_plus = (cur_mult + 1) * cur_plus;
            cur_mult *= cur_mult;
            delta >>= 1;
        }
        state = acc_mult * state + acc_plus;
    }
    *state_out = state;
    *inc_out = inc;
}

/* One LCG step per double: (next_uint64 >> 11) * 2^-53, numpy's
 * next_double on PCG64 (XSL-RR output of the freshly stepped state). */
static void repro_pcg_fill(
    repro_u128 *state, repro_u128 inc, double *out, int64_t count)
{
    repro_u128 s = *state;
    int64_t i;
    for (i = 0; i < count; i++) {
        uint64_t xored, output;
        unsigned rot;
        s = s * REPRO_PCG_MULT + inc;
        xored = (uint64_t)(s >> 64) ^ (uint64_t) s;
        rot = (unsigned)(s >> 122);
        output = (xored >> rot) | (xored << ((-rot) & 63));
        out[i] = (double)(output >> 11) * (1.0 / 9007199254740992.0);
    }
    *state = s;
}

/* One fused pass per request over its window [a[r], b[r]]: the initial
 * draw, every transition draw (compact-CSR narrow rows and wide
 * per-object fallbacks) and the output state gather, carrying the
 * request's global row cursors in ``rows`` without returning to Python
 * per tic.  Requests are independent (all uniforms are pre-drawn), so
 * the request-outer order keeps each request's 128-odd cursors and its
 * own objects' table rows hot in L1 across its whole window.
 *
 * Bit-identity with the numpy arena path holds operation by operation:
 *   - initial picks: upper_bound == searchsorted(..., "right"), then the
 *     same min(pick, m-1) clamp;
 *   - narrow transitions: the pick is literally the count of raw CDF
 *     entries <= u that the numpy column loop sums over the padded
 *     table (+inf padding never counts), compared on the very same
 *     doubles — computed branchlessly here, so the random comparison
 *     outcomes never touch the branch predictor;
 *   - wide transitions: the same aug/indptr/local_next arithmetic as
 *     CompiledLayer.draw, on the same arrays.
 * Uniforms come from one of two sources.  With ``entropy == NULL``
 * they are pre-drawn and request-major: request r's block j lives at
 * uniforms[r*u_stride + j*n] (block 0 = initial variates of fresh
 * requests, block j>=1 its j'th transition; resumed requests shift by
 * one: block j = transition j+1).  With ``entropy`` set (one row of
 * ent_words uint32 words per request), each request's stream is
 * seeded in C (repro_pcg_seed, jumped past rng_consumed[r] doubles)
 * and blocks are generated on the fly into ``uniforms``, which then
 * only needs room for a single block of n doubles — the generation
 * order (initial block first for fresh requests, then transitions in
 * time order) is exactly the stream order the pre-drawn fill uses, so
 * the doubles are identical.
 *
 * The successor array stores one extra entry per row (the boundary case
 * u >= cdf[-1] repeats the last successor, exactly the numpy table's
 * trailing column), so entry k of row g lives at flat index
 * csr_indptr[g] + g + k — the scan cursor's absolute position plus g.
 *
 * Returns 0, or 1 as soon as a sample's row lies outside its object's
 * wide layer — a successor that left the object's own next-step rows,
 * the one index the Python-side table checks cannot vouch for. */
int repro_arena_sweep(
    int64_t t0, int64_t n_steps, int64_t n_req, int64_t n,
    int64_t *a, int64_t *b, uint8_t *resumed, int64_t *pos,
    double *uniforms, int64_t u_stride,
    uint32_t *entropy, int64_t ent_words, int64_t *rng_consumed,
    double **init_cdf, int64_t *init_len,
    int64_t *rows, repro_step *steps, int out_is32,
    void **out_ptrs)
{
    int64_t r, s, t;
    (void) n_steps;
    for (r = 0; r < n_req; r++) {
        int64_t *rr = rows + r * n;
        const int64_t pr = pos[r];
        const double *ub = 0;
        repro_u128 rng_state = 0, rng_inc = 0;
        if (entropy != 0)
            repro_pcg_seed(entropy + r * ent_words, ent_words,
                           (uint64_t) rng_consumed[r],
                           &rng_state, &rng_inc);
        else
            ub = uniforms + r * u_stride;
        for (t = a[r]; t <= b[r]; t++) {
            const repro_step *st = &steps[t - t0];
            const int64_t c = t - a[r];
            const double *u;
            if (t == a[r] && !resumed[r]) {
                const double *cdf = init_cdf[r];
                const int64_t m = init_len[r];
                const int64_t base = st->sup_base[pr];
                const double *u0;
                if (entropy != 0) {
                    repro_pcg_fill(&rng_state, rng_inc, uniforms, n);
                    u0 = uniforms;
                } else {
                    u0 = ub;
                }
                if (m <= 128) {
                    /* count of entries <= u == searchsorted(..., "right")
                     * on any sorted array; branchless beats the binary
                     * search's log2(m) mispredicts at these sizes. */
                    for (s = 0; s < n; s++) {
                        const double us = u0[s];
                        int64_t pick = 0, j;
                        for (j = 0; j < m; j++) pick += (cdf[j] <= us);
                        if (pick >= m) pick = m - 1;
                        rr[s] = pick + base;
                    }
                } else {
                    for (s = 0; s < n; s++) {
                        int64_t pick = repro_upper_bound(cdf, m, u0[s]);
                        if (pick >= m) pick = m - 1;
                        rr[s] = pick + base;
                    }
                }
            }
            if (out_is32) {
                int32_t *o = (int32_t *) out_ptrs[r] + c * n;
                const int32_t *states = st->states32;
                for (s = 0; s < n; s++) o[s] = states[rr[s]];
            } else {
                int64_t *o = (int64_t *) out_ptrs[r] + c * n;
                const int64_t *states = st->states64;
                for (s = 0; s < n; s++) o[s] = states[rr[s]];
            }
            if (t >= b[r]) continue;
            if (entropy != 0) {
                repro_pcg_fill(&rng_state, rng_inc, uniforms, n);
                u = uniforms;
            } else {
                u = ub + (c + (resumed[r] ? 0 : 1)) * n;
            }
            if (st->is_wide != 0 && st->is_wide[pr]) {
                int64_t wi = 0;
                const double *aug;
                const int64_t *indptr, *lnext;
                int64_t auglen, nb, sb, m;
                while (st->wide_pos[wi] != pr) wi++;
                aug = st->wide_aug[wi];
                auglen = st->wide_auglen[wi];
                m = st->wide_rows[wi];
                indptr = st->wide_indptr[wi];
                lnext = st->wide_next[wi];
                nb = st->wide_nextbase[wi];
                sb = st->wide_supbase[wi];
                for (s = 0; s < n; s++) {
                    const int64_t local = rr[s] - sb;
                    int64_t pick, lim;
                    if ((uint64_t) local >= (uint64_t) m) return 1;
                    pick = repro_upper_bound(aug, auglen, (double) local + u[s]);
                    lim = indptr[local];
                    if (pick < lim) pick = lim;
                    lim = indptr[local + 1] - 1;
                    if (pick > lim) pick = lim;
                    rr[s] = lnext[pick] + nb;
                }
            } else if (st->next32 != 0) {
                const double *cdf = st->csr_cdf;
                const int64_t *indptr = st->csr_indptr;
                const int32_t *nx = st->next32;
                for (s = 0; s < n; s++) {
                    const int64_t g = rr[s];
                    const int64_t lo = indptr[g], hi = indptr[g + 1];
                    const double us = u[s];
                    int64_t k = 0, j;
                    for (j = lo; j < hi; j++) k += (cdf[j] <= us);
                    rr[s] = (int64_t) nx[lo + g + k];
                }
            } else {
                const double *cdf = st->csr_cdf;
                const int64_t *indptr = st->csr_indptr;
                const int64_t *nx = st->next64;
                for (s = 0; s < n; s++) {
                    const int64_t g = rr[s];
                    const int64_t lo = indptr[g], hi = indptr[g + 1];
                    const double us = u[s];
                    int64_t k = 0, j;
                    for (j = lo; j < hi; j++) k += (cdf[j] <= us);
                    rr[s] = nx[lo + g + k];
                }
            }
        }
    }
    return 0;
}

/* The per-state distance-table gather, one contiguous row of n worlds at
 * a time: block b holds object cols[b]'s sampled states (int32 where
 * blocks_is32[b], else int64) over its block_rows[b] alive tics from
 * first_tic[b] on, tic-major, and its row j
 * lands in row (cols[b], first_tic[b] + j) of ``out`` (the C-contiguous
 * (n_objects, n_times, n) distance block) as
 * per_state[first_tic[b] + j, state].  Pure movement of identical doubles,
 * so values are bit-identical to the numpy gather.  Returns 0; 2, before
 * any write, when a block does not fit inside ``out``; or 1 at the first
 * row holding a state id the table has no column for (checked before the
 * row is read). */
int repro_distance_gather_rows(
    double *per_state, int64_t n_times, int64_t n_states,
    void **blocks, uint8_t *blocks_is32, int64_t n_blocks,
    int64_t *block_rows, int64_t *first_tic, int64_t *cols,
    int64_t n_objects, int64_t n, double *out)
{
    int64_t b, j, w;
    for (b = 0; b < n_blocks; b++)
        if ((uint64_t) cols[b] >= (uint64_t) n_objects
            || (uint64_t) block_rows[b] > (uint64_t) n_times
            || (uint64_t) first_tic[b] > (uint64_t) (n_times - block_rows[b]))
            return 2;
    for (b = 0; b < n_blocks; b++) {
        for (j = 0; j < block_rows[b]; j++) {
            const double *ps = per_state + (first_tic[b] + j) * n_states;
            double *o = out + (cols[b] * n_times + first_tic[b] + j) * n;
            int bad = 0;
            if (blocks_is32[b]) {
                const int32_t *st = (const int32_t *) blocks[b] + j * n;
                for (w = 0; w < n; w++)
                    bad |= (uint64_t) (int64_t) st[w] >= (uint64_t) n_states;
                if (bad) return 1;
                for (w = 0; w < n; w++) o[w] = ps[st[w]];
            } else {
                const int64_t *st = (const int64_t *) blocks[b] + j * n;
                for (w = 0; w < n; w++)
                    bad |= (uint64_t) st[w] >= (uint64_t) n_states;
                if (bad) return 1;
                for (w = 0; w < n; w++) o[w] = ps[st[w]];
            }
        }
    }
    return 0;
}

/* For each request r: seed PCG64 from its entropy words (jumped past
 * consumed[r] doubles), then emit counts[r] doubles into
 * out + r*out_stride.  Exercises exactly the repro_pcg_seed /
 * repro_pcg_fill pair the sweep's on-the-fly generation uses, so the
 * Python-side self-check of this kernel certifies both. */
void repro_seed_fill(
    uint32_t *entropy, int64_t n_words, int64_t n_req,
    int64_t *consumed, int64_t *counts,
    double *out, int64_t out_stride)
{
    int64_t r;
    for (r = 0; r < n_req; r++) {
        repro_u128 state, inc;
        repro_pcg_seed(entropy + r * n_words, n_words,
                       (uint64_t) consumed[r], &state, &inc);
        repro_pcg_fill(&state, inc, out + r * out_stride, counts[r]);
    }
}
"""


def _cache_root() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _find_built(build_dir: Path) -> Path | None:
    if not build_dir.is_dir():
        return None
    for path in sorted(build_dir.glob(f"{_MODULE_BASENAME}*")):
        if path.suffix in (".so", ".pyd", ".dylib"):
            return path
    return None


def _build(build_dir: Path) -> Path:
    import cffi  # deferred: only a *build* needs it, cached loads don't

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(CDEF)
    ffibuilder.set_source(
        _MODULE_BASENAME, SOURCE, extra_compile_args=list(_COMPILE_ARGS)
    )
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    # Compile into a private staging dir, then atomically publish the
    # artifact — concurrent first-time builders (e.g. serve workers
    # spawning together) race harmlessly to the same final path.
    staging = Path(tempfile.mkdtemp(prefix=".build-", dir=build_dir.parent))
    try:
        built = Path(ffibuilder.compile(tmpdir=str(staging), verbose=False))
        build_dir.mkdir(exist_ok=True)
        target = build_dir / built.name
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def load():
    """Compile (first time) and import the kernel extension module.

    Returns the cffi out-of-line module (``.ffi`` / ``.lib``).  Raises on
    any unsuitability — the caller translates that into "tier absent".
    """
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        raise ImportError("native kernels disabled by REPRO_DISABLE_NATIVE")
    import numpy as np

    if np.dtype(np.intp).itemsize != 8:
        raise ImportError("native kernels require a 64-bit platform")
    digest = hashlib.sha256(
        (CDEF + SOURCE + " ".join(_COMPILE_ARGS)).encode()
    ).hexdigest()[:16]
    build_dir = _cache_root() / digest
    so_path = _find_built(build_dir)
    if so_path is None:
        so_path = _build(build_dir)
    spec = importlib.util.spec_from_file_location(_MODULE_BASENAME, so_path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load native kernels from {so_path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
