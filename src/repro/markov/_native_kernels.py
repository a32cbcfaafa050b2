"""Build/load machinery for the native (C) kernels.

This module owns the C source of the kernels behind
:mod:`repro.markov.native` — the arena sweep over per-model tables, the
check of those tables, the per-state distance-table row gather, the
level-wise PCNN miner, the § 6 prune scan, the forward–backward
adaptation with its stretch compile and the seeder — and compiles
them on first use through cffi's
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
# vectorize.  -ffp-contract=off keeps every multiply rounded before the
# add that follows it, as numpy rounds it: the prune scan's
# ``near + gap * gap`` fused into one FMA would change its bounds' last
# bit, and so would the adaptation's column sums over ``val * prob``.  -fno-math-errno
# lets the scan's sqrt loop vectorize (its arguments are sums of squares,
# never negative, so errno was never set).  A compiler that rejects these
# options simply reports the tier unavailable (and the numpy path keeps
# serving).
_COMPILE_ARGS = (
    "-O3", "-march=native", "-funroll-loops", "-ffp-contract=off", "-fno-math-errno"
)

#: Linked into the extension: libm, for the prune scan's sqrt.
LIBRARIES = ("m",)

# The cdef mirrors the definitions inside SOURCE; cffi checks them against
# the real compiled layout, so a drift between the two fails the build
# loudly instead of corrupting memory.
CDEF = """
typedef struct {
    int64_t  t_first;
    int64_t  *row0;
    int64_t  *states;
    double   *init_cdf;
    double   *cdf;
    int64_t  *indptr;
    int64_t  *next;
} repro_model;

int repro_check_models(
    repro_model *models, int64_t n_models, int64_t *dims, int64_t *bad);

void repro_arena_sweep(
    int64_t n_req, int64_t n,
    int64_t *a, int64_t *b, uint8_t *resumed, repro_model *models,
    double *uniforms, int64_t u_stride,
    uint32_t *entropy, int64_t ent_words, int64_t *rng_consumed,
    int64_t *rows, int out_is32, void *out, int64_t out_stride);

int repro_distance_gather_rows(
    double *per_state, int64_t n_times, int64_t n_states, int64_t row_stride,
    void **blocks, uint8_t *blocks_is32, int64_t n_blocks,
    int64_t *block_rows, int64_t *first_tic, int64_t *cols,
    int64_t n_objects, int64_t n, double *out);

void repro_seed_fill(
    uint32_t *entropy, int64_t n_words, int64_t n_req,
    int64_t *consumed, int64_t *counts,
    double *out, int64_t out_stride);

typedef struct {
    int64_t  n_records;
    int64_t  capacity;
    int64_t  *parent;
    int64_t  *column;
    int64_t  *count;
} repro_mined;

int repro_mine_levels(
    uint8_t *packed, int64_t n_objects, int64_t n_times, int64_t n_bytes,
    int64_t n_worlds, double tau, int64_t max_candidates, int shortcut,
    int64_t *first, int64_t *evaluated, int64_t *levels, uint64_t *certain,
    int64_t *failed, repro_mined *out);

void repro_mined_free(repro_mined *out);

int repro_prune_scan(
    double *rect, int64_t n_slots, int64_t ndim, int64_t n_rows,
    int64_t *segs, int64_t *t_base, int64_t *t_hi, int64_t *row_ptr,
    int64_t n_objects, double *q, int64_t n_q, int64_t *times,
    int64_t n_times, int64_t k,
    int64_t *sel, uint8_t *alive, double *dmin, double *dmax,
    double *prune_dist, uint8_t *candidate, uint8_t *influencer,
    int64_t *sizes);

typedef struct {
    int64_t  n_ints, n_floats, cap_ints, cap_floats;
    int64_t  *ints;
    double   *floats;
} repro_adapted;

int repro_adapt_sweep(
    int64_t **indptrs, int64_t **indices, double **data, int64_t *nnz,
    int64_t gap, int64_t n_states, int64_t n_seg, int64_t *s0, int64_t *s1,
    int64_t *status, int64_t *detail, uint8_t *compiled, int64_t *sizes,
    int64_t *offsets, repro_adapted *out);

void repro_adapted_free(repro_adapted *out);
"""

SOURCE = """
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One compiled model's tables (repro.markov.compiled.ModelTables): rows
 * are the posterior support entries of every tic, tic after tic. */
typedef struct {
    int64_t  t_first;    /* the tic of row0[0]                              */
    int64_t  *row0;      /* first row of every tic, then the row count      */
    int64_t  *states;    /* state id of every row                           */
    double   *init_cdf;  /* every tic's initial CDF, aligned with states    */
    double   *cdf;       /* raw CDFs of the transition rows (CSR)           */
    int64_t  *indptr;    /* row pointers into cdf                           */
    int64_t  *next;      /* successors as model rows, one extra per row     */
} repro_model;

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

/* Whether repro_arena_sweep may read a model's tables: 0 when they are
 * safe, else the number of the first rule broken (native._MODEL_FAULTS
 * states them).  The sizes are the arrays' lengths; row0 holds
 * n_tics + 1 entries (checked by the caller), and every index read here
 * is bounded by the rules checked before it. */
static int repro_check_model(
    const repro_model *md, int64_t n_tics, int64_t n_rows, int64_t n_init,
    int64_t n_cdf, int64_t n_indptr, int64_t n_next)
{
    const int64_t *row0 = md->row0, *indptr = md->indptr, *nx = md->next;
    int64_t i, g, j, n_trans;
    if (row0[0] != 0 || row0[n_tics] != n_rows) return 1;
    for (i = 0; i < n_tics; i++)
        if (row0[i + 1] <= row0[i]) return 1;
    if (n_init != n_rows) return 2;
    n_trans = row0[n_tics - 1];
    if (n_indptr != n_trans + 1 || indptr[0] != 0 || indptr[n_trans] != n_cdf)
        return 3;
    for (g = 0; g < n_trans; g++)
        if (indptr[g + 1] < indptr[g]) return 3;
    if (n_next != n_cdf + n_trans) return 4;
    for (i = 0; i + 1 < n_tics; i++) {
        const int64_t lo = row0[i + 1], hi = row0[i + 2];
        for (g = row0[i]; g < row0[i + 1]; g++) {
            for (j = indptr[g] + g; j <= indptr[g + 1] + g; j++)
                if (nx[j] < lo || nx[j] >= hi) return 5;
            for (j = indptr[g] + 1; j < indptr[g + 1]; j++)
                if (md->cdf[j] < md->cdf[j - 1]) return 6;
        }
    }
    return 0;
}

/* repro_check_model over n_models models, the m-th sized by dims[6m ..]
 * (n_tics, n_rows, n_init, n_cdf, n_indptr, n_next): 0, or the first
 * failing model's status with its index in *bad. */
int repro_check_models(
    repro_model *models, int64_t n_models, int64_t *dims, int64_t *bad)
{
    int64_t m;
    for (m = 0; m < n_models; m++) {
        const int64_t *d = dims + 6 * m;
        const int status = repro_check_model(
            models + m, d[0], d[1], d[2], d[3], d[4], d[5]);
        if (status) {
            *bad = m;
            return status;
        }
    }
    return 0;
}

/* One pass per request over its window [a[r], b[r]] of its own model's
 * tables: the initial draw, every transition draw (a scan of the row's
 * CSR entries, at any row width) and the output state gather, carrying
 * the request's model-row cursors in ``rows`` without returning to
 * Python per tic.  Requests are independent (each reads only its own
 * model and its own stream), so the request-outer order keeps each
 * request's cursors and its model's rows hot in L1 across its window.
 *
 * Bit-identity with the numpy sweeps holds operation by operation:
 *   - initial picks: the count of the tic's initial CDF entries <= u
 *     (upper_bound on wide tics) == searchsorted(..., "right"), then the
 *     same min(pick, m-1) clamp;
 *   - transitions: the pick is literally the count of raw CDF entries
 *     <= u that the numpy column loop sums over the padded table (+inf
 *     padding never counts), compared on the very same doubles —
 *     computed branchlessly here, so the random comparison outcomes
 *     never touch the branch predictor.
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
 * Entry k of row g's successors lives at next[indptr[g] + g + k] (one
 * trailing entry per row: the boundary case u >= cdf[-1] repeats the
 * last successor, exactly the numpy table's trailing column) — the scan
 * cursor's absolute position plus g.  Every index read is vouched for by
 * repro_check_model and the Python-side window validation. */
void repro_arena_sweep(
    int64_t n_req, int64_t n,
    int64_t *a, int64_t *b, uint8_t *resumed, repro_model *models,
    double *uniforms, int64_t u_stride,
    uint32_t *entropy, int64_t ent_words, int64_t *rng_consumed,
    int64_t *rows, int out_is32, void *out, int64_t out_stride)
{
    int64_t r, s, t;
    for (r = 0; r < n_req; r++) {
        const repro_model *md = models + r;
        const int64_t *states = md->states;
        const double *cdf = md->cdf;
        const int64_t *indptr = md->indptr;
        const int64_t *nx = md->next;
        int64_t *rr = rows + r * n;
        const double *ub = 0;
        repro_u128 rng_state = 0, rng_inc = 0;
        if (entropy != 0)
            repro_pcg_seed(entropy + r * ent_words, ent_words,
                           (uint64_t) rng_consumed[r],
                           &rng_state, &rng_inc);
        else
            ub = uniforms + r * u_stride;
        for (t = a[r]; t <= b[r]; t++) {
            const int64_t c = t - a[r];
            const double *u;
            if (t == a[r] && !resumed[r]) {
                const int64_t base = md->row0[t - md->t_first];
                const double *icdf = md->init_cdf + base;
                const int64_t m = md->row0[t - md->t_first + 1] - base;
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
                        for (j = 0; j < m; j++) pick += (icdf[j] <= us);
                        if (pick >= m) pick = m - 1;
                        rr[s] = pick + base;
                    }
                } else {
                    for (s = 0; s < n; s++) {
                        int64_t pick = repro_upper_bound(icdf, m, u0[s]);
                        if (pick >= m) pick = m - 1;
                        rr[s] = pick + base;
                    }
                }
            }
            if (out_is32) {
                int32_t *o = (int32_t *) out + r * out_stride + c * n;
                for (s = 0; s < n; s++) o[s] = (int32_t) states[rr[s]];
            } else {
                int64_t *o = (int64_t *) out + r * out_stride + c * n;
                for (s = 0; s < n; s++) o[s] = states[rr[s]];
            }
            if (t >= b[r]) continue;
            if (entropy != 0) {
                repro_pcg_fill(&rng_state, rng_inc, uniforms, n);
                u = uniforms;
            } else {
                u = ub + (c + (resumed[r] ? 0 : 1)) * n;
            }
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

/* The per-state distance-table gather, one contiguous row of n worlds at
 * a time: block b holds object cols[b]'s sampled states (int32 where
 * blocks_is32[b], else int64) over its block_rows[b] alive tics from
 * first_tic[b] on, tic-major, and its row j
 * lands in row (cols[b], first_tic[b] + j) of ``out`` (the C-contiguous
 * (n_objects, n_times, n) distance block) as
 * per_state[(first_tic[b] + j) * row_stride + state] — row_stride is
 * n_states for a per-tic table and 0 for a static query's one row,
 * which every tic reads.  Pure movement of identical doubles,
 * so values are bit-identical to the numpy gather.  Returns 0; 2, before
 * any write, when a block does not fit inside ``out``; or 1 at the first
 * row holding a state id the table has no column for (checked before the
 * row is read). */
int repro_distance_gather_rows(
    double *per_state, int64_t n_times, int64_t n_states, int64_t row_stride,
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
            const double *ps = per_state + (first_tic[b] + j) * row_stride;
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
/* ------------------------------------------------------------------ *
 * Algorithm 1 (PCNN timestamp-set mining), level-wise, for every
 * object of one shared world pool.  The C twin of
 * repro.core.apriori.mine_world_masks: the same join of (k-1)-sets
 * sharing their first k-2 columns (levels are kept in lexicographic
 * column order, so a prefix group is a run), the same anti-monotone
 * subset check, the same per-object sets_evaluated count and budget
 * check, and the same qualification test count / n_worlds >= tau on
 * the same IEEE division.  A set's worlds are its parent's (the set
 * minus its last column) ANDed with that column's, counted by popcount
 * over uint64 world words.
 * ------------------------------------------------------------------ */

/* One level: its sets in lexicographic order, each with its columns
 * (REPRO_MAX_COLS bytes apiece), its column bitmask, its record and
 * its world words. */
#define REPRO_MAX_COLS 64

typedef struct {
    int64_t  n, cap;
    uint8_t  *cols;
    uint64_t *bits;
    int64_t  *rec;
    uint64_t *masks;
} repro_level;

static int repro_level_reserve(repro_level *lv, int64_t need, int64_t n_words)
{
    int64_t cap;
    void *p;
    if (need <= lv->cap) return 0;
    cap = lv->cap ? lv->cap : 16;
    while (cap < need) cap *= 2;
    p = realloc(lv->cols, (size_t) cap * REPRO_MAX_COLS);
    if (p == 0) return 1;
    lv->cols = (uint8_t *) p;
    p = realloc(lv->bits, (size_t) cap * sizeof(uint64_t));
    if (p == 0) return 1;
    lv->bits = (uint64_t *) p;
    p = realloc(lv->rec, (size_t) cap * sizeof(int64_t));
    if (p == 0) return 1;
    lv->rec = (int64_t *) p;
    p = realloc(lv->masks, (size_t) cap * (size_t) n_words * sizeof(uint64_t));
    if (p == 0) return 1;
    lv->masks = (uint64_t *) p;
    lv->cap = cap;
    return 0;
}

static void repro_level_free(repro_level *lv)
{
    free(lv->cols);
    free(lv->bits);
    free(lv->rec);
    free(lv->masks);
}

/* The qualifying sets of a mining run, as records grown by doubling:
 * the record each extends by one column (-1 for a single column), that
 * column and the set's world count.  repro_mined_free releases them. */
typedef struct {
    int64_t  n_records;
    int64_t  capacity;
    int64_t  *parent;
    int64_t  *column;
    int64_t  *count;
} repro_mined;

/* Append a qualifying set's record; -1 when memory runs out. */
static int64_t repro_mined_push(
    repro_mined *out, int64_t parent, int64_t column, int64_t count)
{
    if (out->n_records == out->capacity) {
        int64_t cap = out->capacity ? 2 * out->capacity : 64;
        void *p;
        p = realloc(out->parent, (size_t) cap * sizeof(int64_t));
        if (p == 0) return -1;
        out->parent = (int64_t *) p;
        p = realloc(out->column, (size_t) cap * sizeof(int64_t));
        if (p == 0) return -1;
        out->column = (int64_t *) p;
        p = realloc(out->count, (size_t) cap * sizeof(int64_t));
        if (p == 0) return -1;
        out->count = (int64_t *) p;
        out->capacity = cap;
    }
    out->parent[out->n_records] = parent;
    out->column[out->n_records] = column;
    out->count[out->n_records] = count;
    return out->n_records++;
}

void repro_mined_free(repro_mined *out)
{
    free(out->parent);
    free(out->column);
    free(out->count);
    out->parent = out->column = out->count = 0;
    out->n_records = out->capacity = 0;
}

/* Open-addressing set of a level's column bitmasks (never 0), for the
 * subset check; size is a power of two at least twice the level. */
static uint64_t repro_hash_slot(uint64_t key, int shift)
{
    return (key * 0x9E3779B97F4A7C15ULL) >> shift;
}

static int repro_hash_has(
    const uint64_t *table, uint64_t size, int shift, uint64_t key)
{
    uint64_t h = repro_hash_slot(key, shift);
    while (table[h] != 0) {
        if (table[h] == key) return 1;
        h = (h + 1) & (size - 1);
    }
    return 0;
}

/* Mine objects 0..n_objects-1 in turn.  Object o's column c is the
 * n_bytes bytes at packed[(o * n_times + c) * n_bytes] (np.packbits of
 * its NN indicator over n_worlds worlds; padding bits are zero).  Its
 * qualifying sets are appended to ``out`` level by level, each level in
 * lexicographic column order, as records (parent record or -1, column,
 * world count); object o's records are first[o]..first[o+1]-1.  With
 * ``shortcut`` the columns every world has are left out of the mining
 * and reported as certain[o] bits (the caller folds them in).
 * evaluated[o] and levels[o] are MiningStats.sets_evaluated and
 * .max_level_reached.  Returns 0; 1 when an object's validations exceed
 * max_candidates (failed = {object, level}, nothing after it mined); 2
 * when memory runs out. */
int repro_mine_levels(
    uint8_t *packed, int64_t n_objects, int64_t n_times, int64_t n_bytes,
    int64_t n_worlds, double tau, int64_t max_candidates, int shortcut,
    int64_t *first, int64_t *evaluated, int64_t *levels, uint64_t *certain,
    int64_t *failed, repro_mined *out)
{
    const int64_t n_words = (n_bytes + 7) / 8;
    const double worlds = (double) n_worlds;
    repro_level cur = {0, 0, 0, 0, 0, 0}, nxt = {0, 0, 0, 0, 0, 0}, tmp;
    uint64_t *columns = 0, *table = 0;
    uint64_t table_size = 0;
    int64_t o, c, i, j, m, w, k;
    int status = 2;
    columns = (uint64_t *) calloc((size_t) (n_times * n_words), sizeof(uint64_t));
    if (columns == 0) goto done;
    first[0] = 0;
    for (o = 0; o < n_objects; o++) {
        evaluated[o] = n_times;
        levels[o] = 0;
        certain[o] = 0;
        cur.n = 0;
        for (c = 0; c < n_times; c++) {
            uint64_t *col = columns + c * n_words;
            int64_t count = 0;
            col[n_words - 1] = 0;
            memcpy(col, packed + (o * n_times + c) * n_bytes, (size_t) n_bytes);
            for (w = 0; w < n_words; w++) count += __builtin_popcountll(col[w]);
            if (shortcut && count == n_worlds) {
                certain[o] |= (uint64_t) 1 << c;
            } else if ((double) count / worlds >= tau) {
                int64_t rec = repro_mined_push(out, -1, c, count);
                if (rec < 0 || repro_level_reserve(&cur, cur.n + 1, n_words))
                    goto done;
                cur.cols[cur.n * REPRO_MAX_COLS] = (uint8_t) c;
                cur.bits[cur.n] = (uint64_t) 1 << c;
                cur.rec[cur.n] = rec;
                memcpy(cur.masks + cur.n * n_words, col,
                       (size_t) n_words * sizeof(uint64_t));
                cur.n++;
            }
        }
        k = 1;
        while (cur.n > 0) {
            int shift = 60;
            uint64_t size = 16;
            levels[o] = k;
            k++;
            while (size < (uint64_t) (2 * cur.n)) {
                size *= 2;
                shift--;
            }
            if (size > table_size) {
                free(table);
                table = (uint64_t *) malloc((size_t) size * sizeof(uint64_t));
                if (table == 0) { table_size = 0; goto done; }
                table_size = size;
            }
            memset(table, 0, (size_t) size * sizeof(uint64_t));
            for (i = 0; i < cur.n; i++) {
                uint64_t h = repro_hash_slot(cur.bits[i], shift);
                while (table[h] != 0) h = (h + 1) & (size - 1);
                table[h] = cur.bits[i];
            }
            nxt.n = 0;
            for (i = 0; i < cur.n; i++) {
                const uint8_t *a = cur.cols + i * REPRO_MAX_COLS;
                for (j = i + 1; j < cur.n; j++) {
                    const uint8_t *b = cur.cols + j * REPRO_MAX_COLS;
                    const int64_t y = b[k - 2];
                    const uint64_t bits = cur.bits[i] | ((uint64_t) 1 << y);
                    const uint64_t *pa = cur.masks + i * n_words;
                    const uint64_t *py = columns + y * n_words;
                    uint64_t *dst;
                    int64_t count = 0;
                    int subsets = 1;
                    if (memcmp(a, b, (size_t) (k - 2)) != 0) break;
                    /* Dropping y gives a, dropping a's last column gives
                     * b: only the other k - 2 subsets need a lookup. */
                    for (m = 0; m + 2 < k && subsets; m++)
                        subsets = repro_hash_has(
                            table, size, shift, bits & ~((uint64_t) 1 << a[m]));
                    if (!subsets) continue;
                    if (++evaluated[o] > max_candidates) {
                        failed[0] = o;
                        failed[1] = k;
                        status = 1;
                        goto done;
                    }
                    if (repro_level_reserve(&nxt, nxt.n + 1, n_words)) goto done;
                    dst = nxt.masks + nxt.n * n_words;
                    for (w = 0; w < n_words; w++) {
                        dst[w] = pa[w] & py[w];
                        count += __builtin_popcountll(dst[w]);
                    }
                    if ((double) count / worlds >= tau) {
                        int64_t rec = repro_mined_push(out, cur.rec[i], y, count);
                        if (rec < 0) goto done;
                        memcpy(nxt.cols + nxt.n * REPRO_MAX_COLS, a, (size_t) (k - 1));
                        nxt.cols[nxt.n * REPRO_MAX_COLS + k - 1] = (uint8_t) y;
                        nxt.bits[nxt.n] = bits;
                        nxt.rec[nxt.n] = rec;
                        nxt.n++;
                    }
                }
            }
            tmp = cur;
            cur = nxt;
            nxt = tmp;
        }
        first[o + 1] = out->n_records;
    }
    status = 0;
done:
    free(columns);
    free(table);
    repro_level_free(&cur);
    repro_level_free(&nxt);
    return status;
}

/* ------------------------------------------------------------------ *
 * The § 6 filter (repro.spatial.ust_tree.USTTree.prune_many) in one
 * pass over the per-tic bound table: window selection, per (query,
 * object, tic) dmin / dmax over every slot, the k-th smallest dmax per
 * (query, tic) and the candidate / influencer verdicts.  The arithmetic
 * is the numpy scan's — squares added dimension by dimension from the
 * first (no fused multiply-add: the build passes -ffp-contract=off),
 * max / min over slots, correctly rounded sqrt — so every bound is the
 * same double.
 * ------------------------------------------------------------------ */

/* The k-th smallest (0-based) of a[0..n-1], reordering a: Hoare
 * partitioning quickselect.  Only the value is used, which is the same
 * whichever equal element lands at k. */
static double repro_kth_smallest(double *a, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    while (lo < hi) {
        const double pivot = a[lo + ((hi - lo) >> 1)];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (a[i] < pivot) i++;
            while (a[j] > pivot) j--;
            if (i <= j) {
                const double t = a[i];
                a[i] = a[j];
                a[j] = t;
                i++;
                j--;
            }
        }
        if (k <= j) hi = j;
        else if (k >= i) lo = i;
        else break;
    }
    return a[k];
}

/* The table (see USTTree.__init__): rect is (2, n_slots, ndim, n_rows),
 * segs (2, n_rows); object i owns rows row_ptr[i] .. for tics t_base[i]
 * .. t_hi[i]; row 0 is the empty rect a tic outside a span reads.  The
 * queries q are (n_q, n_times, ndim).  Objects whose span meets the
 * window's hull count their segments into sizes[1] (examined entries);
 * those alive (slot 0's lower bound finite) at one of the times or more
 * are selected in table order: sel[s] is the s-th one's object, its
 * alive row alive[s * n_times ..] and its bounds dmin / dmax[(n *
 * n_objects + s) * n_times + t] — the capacity is every object.
 * prune_dist is (n_q, n_times) and candidate / influencer (n_q,
 * n_objects).  sizes[0] is the number selected.  Returns 0; 1, before
 * reading a row, when an object of the window's hull owns rows past the
 * table; 2 when memory runs out. */
int repro_prune_scan(
    double *rect, int64_t n_slots, int64_t ndim, int64_t n_rows,
    int64_t *segs, int64_t *t_base, int64_t *t_hi, int64_t *row_ptr,
    int64_t n_objects, double *q, int64_t n_q, int64_t *times,
    int64_t n_times, int64_t k,
    int64_t *sel, uint8_t *alive, double *dmin, double *dmax,
    double *prune_dist, uint8_t *candidate, uint8_t *influencer,
    int64_t *sizes)
{
    const int64_t n_bounds = 2 * n_slots * ndim;
    int64_t lo_t = times[0], hi_t = times[0], n_sel = 0, examined = 0;
    int64_t i, j, m, n, s, t, d, n_pairs;
    int64_t *rows = (int64_t *) malloc(sizeof(int64_t) * (size_t) (n_objects * n_times + 1));
    double *work, *near, *far, *point, *picked;
    if (rows == 0) return 2;
    for (j = 1; j < n_times; j++) {
        if (times[j] < lo_t) lo_t = times[j];
        if (times[j] > hi_t) hi_t = times[j];
    }
    /* Selection: each selected object's table row at every time. */
    for (i = 0; i < n_objects; i++) {
        const int64_t base = t_base[i], last = t_hi[i], row0 = row_ptr[i];
        int64_t *row = rows + n_sel * n_times;
        uint8_t *live = alive + n_sel * n_times;
        uint64_t span;
        int present = 0;
        if (base > hi_t || last < lo_t) continue;
        span = (uint64_t) last - (uint64_t) base;
        if (last < base || row0 < 0 || span >= (uint64_t) n_rows
            || (uint64_t) row0 + span >= (uint64_t) n_rows) {
            free(rows);
            return 1;
        }
        examined += segs[(last < hi_t ? last : hi_t) - base + row0]
                  - segs[n_rows + (base > lo_t ? base : lo_t) - base + row0];
        for (t = 0; t < n_times; t++) {
            const int64_t tt = times[t];
            row[t] = (tt >= base && tt <= last) ? row0 + (tt - base) : 0;
            live[t] = isfinite(rect[row[t]]) != 0;
            present |= live[t];
        }
        if (present) sel[n_sel++] = i;
    }
    sizes[0] = n_sel;
    sizes[1] = examined;
    n_pairs = n_sel * n_times;
    /* Work space: every bound of every selected (object, tic) pair,
     * bound-major (one gather for all queries), then a query's point,
     * its per-slot sums and the k-th selection's copy, pair by pair. */
    work = (double *) malloc(sizeof(double) * (size_t) ((n_bounds + 3) * n_pairs + n_sel + 1));
    if (work == 0) {
        free(rows);
        return 2;
    }
    point = work + n_bounds * n_pairs;
    near = point + n_pairs;
    far = near + n_pairs;
    picked = far + n_pairs;
    for (j = 0; j < n_bounds; j++)
        for (m = 0; m < n_pairs; m++)
            work[j * n_pairs + m] = rect[j * n_rows + rows[m]];
    free(rows);
    /* Bounds, all pairs at once per (query, slot, dimension), so the
     * loops over pairs vectorize.  Adding the first square to 0.0 and
     * taking the first slot's sum against 0.0 / +inf are exact: sums of
     * squares are >= +0. */
    for (n = 0; n < n_q; n++) {
        double *low = dmin + n * n_objects * n_times;
        double *high = dmax + n * n_objects * n_times;
        for (m = 0; m < n_pairs; m++) {
            low[m] = 0.0;
            high[m] = INFINITY;
        }
        for (s = 0; s < n_slots; s++) {
            for (m = 0; m < n_pairs; m++) near[m] = far[m] = 0.0;
            for (d = 0; d < ndim; d++) {
                const double *lo = work + (s * ndim + d) * n_pairs;
                const double *hi = work + ((n_slots + s) * ndim + d) * n_pairs;
                for (m = 0; m < n_pairs; m += n_times)
                    for (t = 0; t < n_times; t++)
                        point[m + t] = q[(n * n_times + t) * ndim + d];
                for (m = 0; m < n_pairs; m++) {
                    const double below = lo[m] - point[m], above = point[m] - hi[m];
                    const double abs_below = fabs(below), abs_above = fabs(above);
                    const double gap = below >= above ? below : above;
                    const double reach = abs_below >= abs_above ? abs_below : abs_above;
                    const double cut = gap > 0.0 ? gap : 0.0;
                    near[m] = near[m] + cut * cut;
                    far[m] = far[m] + reach * reach;
                }
            }
            for (m = 0; m < n_pairs; m++) {
                low[m] = near[m] > low[m] ? near[m] : low[m];
                high[m] = far[m] < high[m] ? far[m] : high[m];
            }
        }
        /* A correctly rounded sqrt is monotone: the root of the largest
         * (smallest) sum is the largest (smallest) root — the numpy
         * scan's max / min over the slots' roots. */
        for (m = 0; m < n_pairs; m++) {
            low[m] = sqrt(low[m]);
            high[m] = sqrt(high[m]);
        }
    }
    for (n = 0; n < n_q && n_sel > 0; n++) {
        const double *lows = dmin + n * n_objects * n_times;
        const double *highs = dmax + n * n_objects * n_times;
        double *bound = prune_dist + n * n_times;
        for (t = 0; t < n_times; t++) {
            if (k > n_sel) {
                bound[t] = INFINITY;
            } else if (k == 1) {
                double best = highs[t];
                for (s = 1; s < n_sel; s++)
                    if (highs[s * n_times + t] < best) best = highs[s * n_times + t];
                bound[t] = best;
            } else {
                for (s = 0; s < n_sel; s++) picked[s] = highs[s * n_times + t];
                bound[t] = repro_kth_smallest(picked, n_sel, k - 1);
            }
        }
        for (s = 0; s < n_sel; s++) {
            const uint8_t *live = alive + s * n_times;
            int any = 0, all = 1;
            for (t = 0; t < n_times; t++) {
                const int within = lows[s * n_times + t] <= bound[t];
                any |= live[t] & within;
                all &= live[t] & within;
            }
            influencer[n * n_objects + s] = (uint8_t) any;
            candidate[n * n_objects + s] = (uint8_t) all;
        }
    }
    free(work);
    return 0;
}

/* ------------------------------------------------------------------ *
 * Algorithm 2 (repro.markov.adaptation._sweep) over one group of
 * segments that walk the same matrices: the forward phase with R(t),
 * the backward phase with F(t) and the posterior marginals, and each
 * derived stretch's ModelTables, segment by segment.
 *
 * Byte identity with the numpy sweep rests on repeating its sums in
 * its order, on the same doubles:
 *   - a column sum (np.add.reduceat over one run) is
 *     x[0] + pairwise(x[1:]);
 *   - every normaliser (np.add.reduce of a 1-D slice, and the numpy
 *     row sums at every width) is 0.0 + pairwise(x);
 *   - a CDF (np.cumsum) adds strictly left to right from x[0];
 * where pairwise is numpy's: left to right from -0.0 below 8 terms,
 * eight accumulators up to 128 terms, else split at n/2 rounded down to
 * a multiple of 8.  Products and quotients are single IEEE operations
 * (the build passes -ffp-contract=off: val * prob feeds a sum), and a
 * run or group lists its entries in the numpy stable sort's order.
 * Nothing depends on the batch: each segment is derived alone.
 * ------------------------------------------------------------------ */

/* A sweep's output: two streams, segment after segment.  Segment b's
 * int64 part is states (R: its rows) | layer_ptr (R + gap) |
 * next_states (E: its entries) | fstates (F: its forward states) | row0
 * | eptr | fptr (gap + 1 each) | indptr (R + 1) | next (E + R), and its
 * float64 part post (R) | probs (E) | fprobs (F) | init_cdf (R) | cdf
 * (E) — see repro_adapt_sweep. */
typedef struct {
    int64_t  n_ints, n_floats, cap_ints, cap_floats;
    int64_t  *ints;
    double   *floats;
} repro_adapted;

void repro_adapted_free(repro_adapted *out)
{
    free(out->ints);
    free(out->floats);
    memset(out, 0, sizeof(*out));
}

static double repro_pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        int64_t i;
        for (i = 0; i < n; i++) res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i, j;
        for (j = 0; j < 8; j++) r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++) r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) res += a[i];
        return res;
    }
    {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return repro_pairwise(a, n2) + repro_pairwise(a + n2, n - n2);
    }
}

/* np.add.reduce of a 1-D slice: the identity, then the pairwise sum. */
static double repro_reduce(const double *a, int64_t n)
{
    return 0.0 + repro_pairwise(a, n);
}

static int repro_cmp_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *) a, y = *(const int64_t *) b;
    return (x > y) - (x < y);
}

static void repro_sort_i64(int64_t *a, int64_t n)
{
    int64_t i, j;
    if (n > 24) {
        qsort(a, (size_t) n, sizeof(int64_t), repro_cmp_i64);
        return;
    }
    for (i = 1; i < n; i++) {
        const int64_t v = a[i];
        for (j = i; j > 0 && a[j - 1] > v; j--) a[j] = a[j - 1];
        a[j] = v;
    }
}

/* Position of v in the sorted a[0 .. n-1], or -1. */
static int64_t repro_find(const int64_t *a, int64_t n, int64_t v)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (a[mid] < v) lo = mid + 1; else hi = mid;
    }
    return lo < n && a[lo] == v ? lo : -1;
}

/* Room for need 8-byte items at *p, whose capacity *cap grows by
 * doubling: 0, or 1 when memory runs out (*p is left as it was). */
static int repro_grow(void **p, int64_t *cap, int64_t need)
{
    if (need > *cap) {
        int64_t c = *cap ? *cap : 256;
        void *q;
        while (c < need) c *= 2;
        q = realloc(*p, (size_t) c * 8);
        if (q == 0) return 1;
        *p = q;
        *cap = c;
    }
    return 0;
}

/* A growable scratch vector. */
typedef struct { void *p; int64_t cap; } repro_vec;

#define REPRO_I(v) ((int64_t *) (v).p)
#define REPRO_D(v) ((double *) (v).p)

/* Groups n keys stably: the distinct keys sorted into keys[0 .. U-1],
 * their group pointers ptr[0 .. U] and every key's destination dest[e]
 * — its group's next free place, so entries keep their order inside a
 * group (numpy's stable argsort of the keys).  slot must read -1 for
 * every state on entry and is left so; cnt needs room for n entries.
 * Returns U. */
static int64_t repro_group(
    const int64_t *key, int64_t n, int64_t *slot, int64_t *keys,
    int64_t *cnt, int64_t *ptr, int64_t *dest)
{
    int64_t n_keys = 0, e, u;
    for (e = 0; e < n; e++) {
        const int64_t j = key[e];
        if (slot[j] < 0) {
            slot[j] = n_keys;
            keys[n_keys] = j;
            cnt[n_keys++] = 0;
        }
        cnt[slot[j]]++;
    }
    repro_sort_i64(keys, n_keys);
    ptr[0] = 0;
    for (u = 0; u < n_keys; u++) ptr[u + 1] = ptr[u] + cnt[slot[keys[u]]];
    for (u = 0; u < n_keys; u++) {
        slot[keys[u]] = u;
        cnt[u] = ptr[u];
    }
    for (e = 0; e < n; e++) dest[e] = cnt[slot[key[e]]]++;
    for (u = 0; u < n_keys; u++) slot[keys[u]] = -1;
    return n_keys;
}

/* One group: n_seg segments of gap tics each, segment b from state
 * s0[b] to s1[b] (-1: an open cone), matrix k (CSR indptrs[k] /
 * indices[k] / data[k] over n_states states, nnz[k] entries) applied
 * between tic offsets k and k + 1.
 *
 * Per segment: status[b] is 0, or its first contradiction — 1: state
 * detail[2b + 1] of a cone has no successors at offset detail[2b]; 2:
 * the support dies out at offset detail[2b] + 1; 3: the closing fix has
 * zero probability — and a contradicting segment emits nothing.  The
 * others append their parts to out's two streams (see repro_adapted)
 * from offsets[2b] (int64) and offsets[2b + 1] (float64) on, with R, E
 * and F in sizes[3b ..]: F(t) (layer_ptr, next_states, probs) and the
 * posteriors (states, post) of tics 0 .. gap-1 — tic k's rows from
 * row0[k], its entries from eptr[k] — the forward marginals of tics 1 ..
 * gap (1 .. gap-1 when closed) — tic k's from fptr[k - 1] — and the
 * stretch's ModelTables
 * (row0, states, init_cdf, cdf, indptr, next).  compiled[b] is 0 when a
 * cone's transition targets a state its next marginal lost (a stored
 * 0.0): no table is valid then.
 *
 * Returns 0; 1 for an indptr that is not monotone within [0, nnz]; 2
 * for a successor outside [0, n_states); 3 for an observed state
 * outside it; 4 when memory runs out; 5 should a backward state miss
 * its forward run (never: the backward support is a forward one).
 * Every matrix is checked whole before the sweep reads it. */
int repro_adapt_sweep(
    int64_t **indptrs, int64_t **indices, double **data, int64_t *nnz,
    int64_t gap, int64_t n_states, int64_t n_seg, int64_t *s0, int64_t *s1,
    int64_t *status, int64_t *detail, uint8_t *compiled, int64_t *sizes,
    int64_t *offsets, repro_adapted *out)
{
    int64_t b, k, i, x, e, u, rc = 0;
    int64_t *slot = 0, *fs_ptr = 0, *b_sup0 = 0, *b_supn = 0, *b_ent0 = 0;
    /* scratch of one step: gathered keys, sources and values, their
     * destinations, the grouping's keys / counts / pointers, sums. */
    repro_vec gkey = {0, 0}, gsrc = {0, 0}, gval = {0, 0}, dest = {0, 0};
    repro_vec keys = {0, 0}, cnt = {0, 0}, ptr = {0, 0}, col = {0, 0};
    repro_vec runs = {0, 0}, ent_prev = {0, 0}, ent_val = {0, 0};
    /* a segment's forward supports of tics 0 .. gap (from fs_ptr[k])
     * and R(t) per tic: run pointers, previous states, probabilities. */
    repro_vec fs_states = {0, 0}, fs_probs = {0, 0};
    repro_vec r_ptr = {0, 0}, r_prev = {0, 0}, r_prob = {0, 0};
    /* its backward supports and F(t) rows per tic (stored last tic
     * first): group pointers, successors, their index in the next
     * support, probabilities. */
    repro_vec b_states = {0, 0}, b_probs = {0, 0}, b_gptr = {0, 0};
    repro_vec b_next = {0, 0}, b_src = {0, 0}, b_fprob = {0, 0};

    for (k = 0; k < gap; k++) {
        const int64_t *ip = indptrs[k], *ix = indices[k];
        int dup = 0;
        for (x = 0; x < k; x++)
            dup |= indptrs[x] == ip && indices[x] == ix && nnz[x] == nnz[k];
        if (dup) continue;
        if (ip[0] < 0 || ip[n_states] > nnz[k]) return 1;
        for (i = 0; i < n_states; i++)
            if (ip[i + 1] < ip[i]) return 1;
        for (e = 0; e < nnz[k]; e++)
            if (ix[e] < 0 || ix[e] >= n_states) return 2;
    }
    for (b = 0; b < n_seg; b++)
        if (s0[b] < 0 || s0[b] >= n_states || s1[b] < -1 || s1[b] >= n_states)
            return 3;

    memset(out, 0, sizeof(*out));
    slot = (int64_t *) malloc((size_t) n_states * 8);
    fs_ptr = (int64_t *) malloc((size_t) (gap + 2) * 8);
    b_sup0 = (int64_t *) malloc((size_t) gap * 8);
    b_supn = (int64_t *) malloc((size_t) gap * 8);
    b_ent0 = (int64_t *) malloc((size_t) gap * 8);
    if (!slot || !fs_ptr || !b_sup0 || !b_supn || !b_ent0) {
        rc = 4;
        goto done;
    }
    for (i = 0; i < n_states; i++) slot[i] = -1;
    offsets[0] = offsets[1] = 0;

#define RESERVE(v, need) \\
    do { if (repro_grow(&(v).p, &(v).cap, (need))) { rc = 4; goto done; } } while (0)
#define RESERVE_STEP(n) \\
    do { \\
        RESERVE(gkey, (n)); RESERVE(gsrc, (n)); RESERVE(gval, (n)); \\
        RESERVE(dest, (n)); RESERVE(keys, (n) + 1); RESERVE(cnt, (n) + 1); \\
        RESERVE(ptr, (n) + 1); RESERVE(col, (n) + 1); \\
    } while (0)

    for (b = 0; b < n_seg; b++) {
        const int closed = s1[b] >= 0;
        int64_t *o = offsets + 2 * b;
        int64_t n_rows = 0, n_ent = 0, n_fwd;
        status[b] = 0;
        compiled[b] = 1;
        o[2] = o[0];
        o[3] = o[1];
        sizes[3 * b] = sizes[3 * b + 1] = sizes[3 * b + 2] = 0;

        /* ---- forward phase (Algorithm 2, lines 2-10): propagate with
         * the a-priori chain from the certain start, recording R(t). */
        RESERVE(fs_states, 1);
        RESERVE(fs_probs, 1);
        REPRO_I(fs_states)[0] = s0[b];
        REPRO_D(fs_probs)[0] = 1.0;
        fs_ptr[0] = 0;
        fs_ptr[1] = 1;
        for (k = 0; k < gap; k++) {
            const int64_t *ip = indptrs[k], *ix = indices[k];
            const double *dat = data[k];
            const int64_t lo = fs_ptr[k], hi = fs_ptr[k + 1];
            /* R(t)'s run pointers from rb on; its entries from re on. */
            const int64_t rb = hi - 1 + k, re = k ? REPRO_I(r_ptr)[rb - 1] : 0;
            int64_t n_gather = 0, n_keys, n_active = 0;
            double total;
            for (i = lo; i < hi; i++) {
                const int64_t s = REPRO_I(fs_states)[i];
                /* With no future evidence a cone's F(t) is the chain's
                 * own rows: an empty one is a dead end. */
                if (!closed && ip[s] == ip[s + 1]) {
                    status[b] = 1;
                    detail[2 * b] = k;
                    detail[2 * b + 1] = s;
                    break;
                }
                n_gather += ip[s + 1] - ip[s];
            }
            if (status[b]) break;
            RESERVE_STEP(n_gather);
            RESERVE(ent_prev, n_gather);
            RESERVE(ent_val, n_gather);
            RESERVE(fs_states, hi + n_gather);
            RESERVE(fs_probs, hi + n_gather);
            RESERVE(r_ptr, rb + n_gather + 1);
            RESERVE(r_prev, re + n_gather);
            RESERVE(r_prob, re + n_gather);
            n_gather = 0;
            for (i = lo; i < hi; i++) {
                const int64_t s = REPRO_I(fs_states)[i];
                for (e = ip[s]; e < ip[s + 1]; e++) {
                    REPRO_I(gkey)[n_gather] = ix[e];
                    REPRO_I(gsrc)[n_gather] = i;
                    REPRO_D(gval)[n_gather++] = dat[e];
                }
            }
            n_keys = repro_group(REPRO_I(gkey), n_gather, slot, REPRO_I(keys),
                                 REPRO_I(cnt), REPRO_I(ptr), REPRO_I(dest));
            /* X'(t): the joint probabilities, grouped by next state with
             * the previous state ascending inside each group. */
            for (e = 0; e < n_gather; e++) {
                const int64_t d = REPRO_I(dest)[e], src = REPRO_I(gsrc)[e];
                REPRO_I(ent_prev)[d] = REPRO_I(fs_states)[src];
                REPRO_D(ent_val)[d] = REPRO_D(gval)[e] * REPRO_D(fs_probs)[src];
            }
            /* Column sums; a column summing to 0 (explicitly stored
             * zeros) leaves the support.  R(t) = joint / column sum. */
            REPRO_I(r_ptr)[rb] = re;
            for (u = 0; u < n_keys; u++) {
                const int64_t a = REPRO_I(ptr)[u], z = REPRO_I(ptr)[u + 1];
                const double *joint = REPRO_D(ent_val);
                const double c = joint[a] + repro_pairwise(joint + a + 1, z - a - 1);
                int64_t w = REPRO_I(r_ptr)[rb + n_active];
                if (!(c > 0)) continue;
                for (x = a; x < z; x++, w++) {
                    REPRO_I(r_prev)[w] = REPRO_I(ent_prev)[x];
                    REPRO_D(r_prob)[w] = joint[x] / c;
                }
                REPRO_D(col)[n_active] = c;
                REPRO_I(fs_states)[hi + n_active] = REPRO_I(keys)[u];
                REPRO_I(r_ptr)[rb + ++n_active] = w;
            }
            fs_ptr[k + 2] = hi + n_active;
            if (n_active == 0) {
                status[b] = 2;
                detail[2 * b] = k;
                break;
            }
            total = repro_reduce(REPRO_D(col), n_active);
            for (u = 0; u < n_active; u++)
                REPRO_D(fs_probs)[hi + u] = REPRO_D(col)[u] / total;
            if (k == gap - 1 && closed) {
                const int64_t at = repro_find(REPRO_I(fs_states) + hi, n_active, s1[b]);
                if (at < 0 || !(REPRO_D(fs_probs)[hi + at] > 0.0)) {
                    status[b] = 3;
                    detail[2 * b] = k;
                }
            }
        }
        if (status[b]) continue;

        /* ---- backward phase (lines 12-16): through R(t) from the
         * certain end, producing F(t) and the posterior marginals. */
        if (closed) {
            /* The support of tic k + 1: c_n states from c_at on (tic gap
             * is the closing fix alone). */
            int64_t c_at = -1, c_n = 1;
            for (k = gap - 1; k >= 0; k--) {
                const int64_t lo1 = fs_ptr[k + 1], n1 = fs_ptr[k + 2] - lo1;
                const int64_t rb = lo1 - 1 + k, gp0 = n_rows + (gap - 1 - k);
                int64_t n_gather = 0, n_keys, g;
                double total;
                RESERVE(runs, c_n);
                for (i = 0; i < c_n; i++) {
                    const int64_t j = c_at < 0 ? s1[b] : REPRO_I(b_states)[c_at + i];
                    const int64_t run = repro_find(REPRO_I(fs_states) + lo1, n1, j);
                    if (run < 0) {
                        rc = 5;
                        goto done;
                    }
                    REPRO_I(runs)[i] = run;
                    n_gather += REPRO_I(r_ptr)[rb + run + 1] - REPRO_I(r_ptr)[rb + run];
                }
                RESERVE_STEP(n_gather);
                RESERVE(b_states, n_rows + n_gather);
                RESERVE(b_probs, n_rows + n_gather);
                RESERVE(b_gptr, gp0 + n_gather + 1);
                RESERVE(b_next, n_ent + n_gather);
                RESERVE(b_src, n_ent + n_gather);
                RESERVE(b_fprob, n_ent + n_gather);
                n_gather = 0;
                for (i = 0; i < c_n; i++) {
                    const double q = c_at < 0 ? 1.0 : REPRO_D(b_probs)[c_at + i];
                    const int64_t run = REPRO_I(runs)[i];
                    for (x = REPRO_I(r_ptr)[rb + run]; x < REPRO_I(r_ptr)[rb + run + 1]; x++) {
                        REPRO_I(gkey)[n_gather] = REPRO_I(r_prev)[x];
                        REPRO_I(gsrc)[n_gather] = i;
                        REPRO_D(gval)[n_gather++] = REPRO_D(r_prob)[x] * q;
                    }
                }
                n_keys = repro_group(REPRO_I(gkey), n_gather, slot, REPRO_I(keys),
                                     REPRO_I(cnt), REPRO_I(ptr), REPRO_I(dest));
                /* Tic k's F rows, grouped by the state they leave: the
                 * successor, its index in tic k + 1's support, the mass. */
                for (e = 0; e < n_gather; e++) {
                    const int64_t d = n_ent + REPRO_I(dest)[e], src = REPRO_I(gsrc)[e];
                    REPRO_I(b_next)[d] = c_at < 0 ? s1[b] : REPRO_I(b_states)[c_at + src];
                    REPRO_I(b_src)[d] = src;
                    REPRO_D(b_fprob)[d] = REPRO_D(gval)[e];
                }
                for (g = 0; g < n_keys; g++) {
                    const int64_t a = n_ent + REPRO_I(ptr)[g], z = n_ent + REPRO_I(ptr)[g + 1];
                    REPRO_D(col)[g] = repro_reduce(REPRO_D(b_fprob) + a, z - a);
                }
                total = repro_reduce(REPRO_D(col), n_keys);
                for (g = 0; g < n_keys; g++) {
                    const double t = REPRO_D(col)[g];
                    REPRO_I(b_states)[n_rows + g] = REPRO_I(keys)[g];
                    REPRO_D(b_probs)[n_rows + g] = t / total;
                    REPRO_I(b_gptr)[gp0 + g] = REPRO_I(ptr)[g];
                    for (x = n_ent + REPRO_I(ptr)[g]; x < n_ent + REPRO_I(ptr)[g + 1]; x++)
                        REPRO_D(b_fprob)[x] = REPRO_D(b_fprob)[x] / t;
                }
                REPRO_I(b_gptr)[gp0 + n_keys] = n_gather;
                b_sup0[k] = c_at = n_rows;
                b_supn[k] = c_n = n_keys;
                b_ent0[k] = n_ent;
                n_rows += n_keys;
                n_ent += n_gather;
            }
        } else {
            n_rows = fs_ptr[gap];
            for (k = 0; k < gap; k++)
                for (i = fs_ptr[k]; i < fs_ptr[k + 1]; i++) {
                    const int64_t s = REPRO_I(fs_states)[i];
                    n_ent += indptrs[k][s + 1] - indptrs[k][s];
                }
        }

        /* ---- emit the record's arrays and its stretch's tables ---- */
        n_fwd = fs_ptr[closed ? gap : gap + 1] - 1;
        sizes[3 * b] = n_rows;
        sizes[3 * b + 1] = n_ent;
        sizes[3 * b + 2] = n_fwd;
        o[2] = o[0] + 4 * n_rows + 2 * n_ent + n_fwd + 4 * gap + 4;
        o[3] = o[1] + 2 * n_rows + 2 * n_ent + n_fwd;
        if (repro_grow((void **) &out->ints, &out->cap_ints, o[2])
            || repro_grow((void **) &out->floats, &out->cap_floats, o[3])) {
            rc = 4;
            goto done;
        }
        {
            int64_t *st = out->ints + o[0], *lp = st + n_rows;
            int64_t *nx = lp + n_rows + gap, *fs = nx + n_ent, *r0 = fs + n_fwd;
            int64_t *ep = r0 + gap + 1, *fp = ep + gap + 1, *tp = fp + gap + 1;
            int64_t *succ = tp + n_rows + 1;
            double *po = out->floats + o[1], *pr = po + n_rows, *fpr = pr + n_ent;
            double *ic = fpr + n_fwd, *cd = ic + n_rows;
            int64_t row = 0, ent = 0;
            r0[0] = 0;
            for (k = 0; k < gap; k++) {
                const int64_t *sup, *gp = 0;
                const double *q;
                int64_t n_k, base = 0, first = ent;
                if (closed) {
                    sup = REPRO_I(b_states) + b_sup0[k];
                    q = REPRO_D(b_probs) + b_sup0[k];
                    n_k = b_supn[k];
                    gp = REPRO_I(b_gptr) + b_sup0[k] + (gap - 1 - k);
                    base = b_ent0[k];
                } else {
                    sup = REPRO_I(fs_states) + fs_ptr[k];
                    q = REPRO_D(fs_probs) + fs_ptr[k];
                    n_k = fs_ptr[k + 1] - fs_ptr[k];
                }
                r0[k + 1] = r0[k] + n_k;
                ep[k] = ent;
                lp[r0[k] + k] = 0;
                for (i = 0; i < n_k; i++, row++) {
                    int64_t lo, hi, last = 0;
                    double c = 0.0;
                    st[row] = sup[i];
                    po[row] = q[i];
                    ic[row] = i ? ic[row - 1] + q[i] : q[i];
                    tp[row] = ent;
                    if (closed) {
                        lo = base + gp[i];
                        hi = base + gp[i + 1];
                    } else {
                        lo = indptrs[k][sup[i]];
                        hi = indptrs[k][sup[i] + 1];
                    }
                    for (x = lo; x < hi; x++, ent++) {
                        double p;
                        if (closed) {
                            nx[ent] = REPRO_I(b_next)[x];
                            p = REPRO_D(b_fprob)[x];
                            last = r0[k + 1] + REPRO_I(b_src)[x];
                        } else {
                            const int64_t at = repro_find(
                                REPRO_I(fs_states) + fs_ptr[k + 1],
                                fs_ptr[k + 2] - fs_ptr[k + 1], indices[k][x]);
                            nx[ent] = indices[k][x];
                            p = data[k][x];
                            if (at < 0) compiled[b] = 0;
                            last = r0[k + 1] + (at < 0 ? 0 : at);
                        }
                        pr[ent] = p;
                        c = x == lo ? p : c + p;
                        cd[ent] = c;
                        succ[ent + row] = last;
                    }
                    succ[ent + row] = last;  /* the trailing copy */
                    lp[r0[k] + k + i + 1] = ent - first;
                }
            }
            tp[row] = ep[gap] = ent;
            memcpy(fs, REPRO_I(fs_states) + 1, (size_t) n_fwd * 8);
            memcpy(fpr, REPRO_D(fs_probs) + 1, (size_t) n_fwd * 8);
            for (k = 0; k < gap; k++) fp[k] = fs_ptr[k + 1] - 1;
            fp[gap] = n_fwd;
        }
    }
    out->n_ints = offsets[2 * n_seg];
    out->n_floats = offsets[2 * n_seg + 1];
#undef RESERVE_STEP
#undef RESERVE

done:
    free(slot);
    free(fs_ptr);
    free(b_sup0);
    free(b_supn);
    free(b_ent0);
    free(gkey.p); free(gsrc.p); free(gval.p); free(dest.p);
    free(keys.p); free(cnt.p); free(ptr.p); free(col.p);
    free(runs.p); free(ent_prev.p); free(ent_val.p);
    free(fs_states.p); free(fs_probs.p);
    free(r_ptr.p); free(r_prev.p); free(r_prob.p);
    free(b_states.p); free(b_probs.p); free(b_gptr.p);
    free(b_next.p); free(b_src.p); free(b_fprob.p);
    if (rc) repro_adapted_free(out);
    return rc;
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
        _MODULE_BASENAME, SOURCE, extra_compile_args=list(_COMPILE_ARGS),
        libraries=list(LIBRARIES),
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
