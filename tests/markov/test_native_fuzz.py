"""Adversarial fuzz of the Python/C boundary of the native kernel tier.

Every case either raises ``ValueError`` at the boundary or matches the
numpy sweep (resp. the numpy gather) byte for byte — never a silent wrong
answer, never an out-of-bounds access.  The cases cover what the engine
never produces on its own: width-1 windows, ``n = 1``, resumed-only
batches, int32 and int64 state outputs, wide (per-object) layers, and
step tables corrupted after packing — successors outside the next step's
rows, decreasing CDF rows, broken row pointers, a states dtype the sweep
does not write — plus distance-gather calls with state ids outside the
table and blocks placed outside ``out``.

The same module runs under AddressSanitizer/UBSan in
``test_native_sanitized.py``: there a read or write past any buffer is
a hard failure even when the result happens to come out right.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.markov import native
from repro.markov.adaptation import adapt_model
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from repro.markov.chain import MarkovChain

pytestmark = [
    pytest.mark.native,
    pytest.mark.skipif(
        not native.available(),
        reason=f"native tier unavailable ({native.unavailable_reason()})",
    ),
]

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@functools.lru_cache(maxsize=None)
def _model(n_states, start, span, obs_every, extend, dense, seed):
    """A compiled model over ``[start, start + span + extend]``.  Dense
    chains with states beyond the dense-width limit give wide layers;
    ``extend`` tics past the last fix spread the support unconditioned."""
    r = np.random.default_rng(seed)
    mat = r.uniform(size=(n_states, n_states))
    if not dense:
        mask = r.uniform(size=(n_states, n_states)) < (4.0 / n_states)
        np.fill_diagonal(mask, True)
        mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    walk = [int(r.integers(n_states))]
    for _ in range(span):
        nxt, probs = chain.successors(walk[-1], 0)
        walk.append(int(r.choice(nxt, p=probs)))
    obs = [(start + t, walk[t]) for t in range(0, span + 1, obs_every)]
    return adapt_model(chain, obs, extend_to=obs[-1][0] + extend).compiled


@st.composite
def _models(draw):
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        dense = draw(st.integers(0, 4)) == 0
        span = draw(st.integers(0, 5))
        specs.append((
            70 if dense else draw(st.integers(2, 12)),
            draw(st.integers(0, 3)),
            span,
            draw(st.integers(1, max(span, 1))),
            draw(st.integers(0, 2)),
            dense,
            draw(st.integers(0, 50)),
        ))
    return [_model(*spec) for spec in specs]


def _arena(models, c_sweep, wide_states):
    arena = SamplingArena(native=c_sweep)
    if wide_states:
        # int64 outputs, as for a state space past int32 ids.
        arena._states_dtype = np.dtype(np.intp)
    for i, m in enumerate(models):
        arena.ensure(f"m{i}", m)
    return arena


def _handle(seed, lazy):
    ent = np.random.default_rng(seed).integers(0, 2**32, size=4, dtype=np.uint32)
    if lazy:
        return native.LazySeededRng(ent)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(ent)))


@st.composite
def _batches(draw):
    """Models plus request specs ``(object, a, b, start_states | None)``."""
    models = draw(_models())
    n = draw(st.sampled_from([1, 2, 3, 7, 16]))
    mode = draw(st.sampled_from(["fresh", "resumed", "mixed"]))
    picked = draw(
        st.lists(st.integers(0, len(models) - 1), min_size=1, unique=True)
    )
    specs = []
    for i in picked:
        m = models[i]
        a = draw(st.integers(m.t_first, m.t_last))
        b = draw(st.integers(a, m.t_last))
        resumed = mode == "resumed" or (mode == "mixed" and draw(st.booleans()))
        start = None
        if resumed:
            support = m.support_at(a)
            start = support[draw(st.lists(
                st.integers(0, support.size - 1), min_size=n, max_size=n
            ))]
        specs.append((i, a, b, start))
    return models, n, specs


def _requests(specs, lazy):
    return [
        ArenaRequest(f"m{i}", a, b, _handle(100 + k, lazy), start_states=start)
        for k, (i, a, b, start) in enumerate(specs)
    ]


class TestSweepFuzz:
    @FUZZ
    @given(batch=_batches(), lazy=st.booleans(), wide_states=st.booleans())
    def test_matches_the_numpy_sweep(self, batch, lazy, wide_states):
        models, n, specs = batch
        got = sample_paths_arena(
            _arena(models, True, wide_states), _requests(specs, lazy), n
        )
        want = sample_paths_arena(
            _arena(models, False, wide_states), _requests(specs, lazy), n
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @FUZZ
    @given(batch=_batches(), data=st.data())
    def test_corrupted_tables_raise(self, batch, data):
        """A table damaged after packing is refused before the kernel
        reads it: the boundary check runs on every table's first use."""
        models, n, specs = batch
        arena = _arena(models, True, False)
        active = sorted({t for _, a, b, _ in specs for t in range(a, b + 1)})
        damage = []
        for t in active:
            table = arena.table(t)
            if table.csr_cdf is not None:
                sizes = np.diff(table.csr_indptr)
                damage += [(table, "successor"), (table, "states")]
                if sizes.size > 1:
                    damage.append((table, "indptr"))
                if (sizes > 1).any():
                    damage.append((table, "cdf"))
            if table.wide:
                damage.append((table, "wide"))
            if t + 1 in active:
                damage.append((table, "chain"))
        if not damage:
            return
        table, kind = data.draw(st.sampled_from(damage))
        event(kind)
        if kind == "successor":
            k = data.draw(st.integers(0, table.csr_next.size - 1))
            bad = table.csr_next.copy()
            bad[k] = data.draw(st.sampled_from([-1, table.n_next, 2**30]))
            table.csr_next = bad
        elif kind == "states":
            other = np.int64 if table.states.dtype == np.int32 else np.int32
            table.states = table.states.astype(other)
        elif kind == "indptr":
            bad = table.csr_indptr.copy()
            k = data.draw(st.integers(1, bad.size - 1))
            bad[k] = data.draw(st.sampled_from([bad[-1] + 1, -1]))
            table.csr_indptr = bad
        elif kind == "cdf":
            rows = np.flatnonzero(np.diff(table.csr_indptr) > 1)
            lo = table.csr_indptr[data.draw(st.sampled_from(list(rows)))]
            bad = table.csr_cdf.copy()
            bad[lo + 1] = bad[lo] - 0.25
            table.csr_cdf = bad
        elif kind == "wide":
            pos = data.draw(st.sampled_from(sorted(table.wide)))
            layer, base = table.wide[pos]
            succ = layer.local_next.copy()
            succ[data.draw(st.integers(0, succ.size - 1))] = table.n_next - base
            table.wide[pos] = (
                SimpleNamespace(
                    cdf_flat=layer.cdf_flat, indptr=layer.indptr,
                    local_next=succ, aug=layer.aug,
                ),
                base,
            )
        else:  # the next step's table no longer has the rows this one targets
            table.n_next += 1
        fresh = [(i, a, b, None) for i, a, b, _ in specs]
        with pytest.raises(ValueError):
            sample_paths_arena(arena, _requests(fresh, True), n)


def _numpy_gather(per_state, blocks, cols, first_tic, out):
    for block, col, t0 in zip(blocks, cols, first_tic):
        for j, row in enumerate(block):
            out[col, t0 + j] = per_state[t0 + j, row]
    return out


class TestGatherFuzz:
    @FUZZ
    @given(data=st.data())
    def test_rejects_or_matches_the_numpy_gather(self, data):
        n_obj = data.draw(st.integers(1, 4))
        n_times = data.draw(st.integers(1, 5))
        n_states = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 5))
        per_state = np.random.default_rng(data.draw(st.integers(0, 99))).uniform(
            size=(n_times, n_states)
        )
        cols = data.draw(st.lists(
            st.integers(-1, n_obj), min_size=1, max_size=n_obj + 1
        ))
        blocks, first_tic = [], []
        for _ in cols:
            t0 = data.draw(st.integers(-1, n_times))
            rows = data.draw(st.integers(0, n_times + 1))
            ids = data.draw(st.lists(
                st.integers(-2, n_states + 1), min_size=rows * n, max_size=rows * n
            ))
            dtype = data.draw(st.sampled_from([np.int32, np.int64]))
            blocks.append(np.array(ids, dtype=dtype).reshape(rows, n))
            first_tic.append(t0)
        cols, first_tic = np.array(cols), np.array(first_tic)
        assert native.can_gather_rows(blocks)
        out = np.full((n_obj, n_times, n), np.inf)
        placed = (
            (cols >= 0).all()
            and (cols < n_obj).all()
            and (first_tic >= 0).all()
            and all(t0 + len(b) <= n_times for t0, b in zip(first_tic, blocks))
        )
        ids_ok = all(((b >= 0) & (b < n_states)).all() for b in blocks)
        if placed and ids_ok:
            native.gather_distance_rows(per_state, blocks, cols, first_tic, out)
            want = _numpy_gather(
                per_state, blocks, cols, first_tic, np.full_like(out, np.inf)
            )
            assert out.tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError):
                native.gather_distance_rows(per_state, blocks, cols, first_tic, out)


class TestSeedFillFuzz:
    @FUZZ
    @given(
        words=st.integers(1, 9),
        consumed=st.integers(0, 10**6),
        size=st.integers(0, 40),
        into_out=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_parked_handle_draws_the_eager_stream(
        self, words, consumed, size, into_out, seed
    ):
        ent = np.random.default_rng(seed).integers(0, 2**32, size=words, dtype=np.uint32)
        handle = native.LazySeededRng(ent, consumed=consumed)
        if into_out:
            got = np.empty(size)
            handle.random(out=got)
        else:
            got = handle.random(size)
        eager = np.random.Generator(np.random.PCG64(np.random.SeedSequence(ent)))
        eager.bit_generator.advance(consumed)
        np.testing.assert_array_equal(got, eager.random(size))
        assert handle.consumed == consumed + size
        np.testing.assert_array_equal(handle.random(3), eager.random(3))
