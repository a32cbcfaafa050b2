"""Adversarial fuzz of the Python/C boundary of the native kernel tier.

Every case either raises ``ValueError`` at the boundary or matches the
numpy sweep (resp. the numpy gather) byte for byte — never a silent wrong
answer, never an out-of-bounds access.  The cases cover what the engine
never produces on its own: width-1 windows, ``n = 1``, resumed-only
batches, int32 and int64 state outputs, CSR rows wider than 64 entries,
and model tables corrupted before their first native draw — successors
outside the next tic's rows, decreasing CDF rows, broken row pointers, a
states dtype the sweep does not read, an initial CDF out of line with the
states, an empty tic — plus distance-gather calls with state ids outside
the table and blocks placed outside ``out``, PCNN mining over every world
count around a byte or word boundary against the Python miner (budget
errors included), prune scans over random tables against the numpy scan,
and miner / scan calls with a wrong dtype, shape, budget or row pointer.

The same module runs under AddressSanitizer/UBSan in
``test_native_sanitized.py``: there a read or write past any buffer is
a hard failure even when the result happens to come out right.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.apriori import AprioriBudgetExceeded, mine_objects
from repro.markov import native
from repro.markov.adaptation import adapt_model
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from repro.markov.chain import MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.trajectory.database import TrajectoryDatabase
from tests.oracles import same_pruning

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
    chains over 70 states give rows of up to 70 entries; ``extend`` tics
    past the last fix spread the support unconditioned."""
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


def _arena(models, c_sweep, int64_states):
    arena = SamplingArena(native=c_sweep)
    if int64_states:
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


#: What :func:`_damaged` can break in a model's tables.
DAMAGE = ("successor", "states", "init_cdf", "indptr", "cdf", "row0")


def _damaged(model, kind, pick):
    """A twin of ``model`` whose tables carry one ``kind`` of damage,
    placed by ``pick(options)``; ``None`` when the tables have nothing of
    that kind to break."""
    tables = model.tables
    sizes = np.diff(tables.indptr)
    if kind == "successor" and tables.next.size:
        bad = tables.next.copy()
        bad[pick(range(bad.size))] = pick([-1, 0, tables.row0[-1], 2**30])
        tables = tables._replace(next=bad)
    elif kind == "states":
        tables = tables._replace(states=tables.states.astype(np.int32))
    elif kind == "init_cdf":
        tables = tables._replace(init_cdf=tables.init_cdf[:-1].copy())
    elif kind == "indptr" and sizes.size:
        bad = tables.indptr.copy()
        bad[pick(range(1, bad.size))] = pick([bad[-1] + 1, -1])
        tables = tables._replace(indptr=bad)
    elif kind == "cdf" and (sizes > 1).any():
        lo = tables.indptr[pick(np.flatnonzero(sizes > 1))]
        bad = tables.cdf.copy()
        bad[lo + 1] = bad[lo] - 0.25
        tables = tables._replace(cdf=bad)
    elif kind == "row0" and tables.row0.size > 2:  # a tic with no rows
        bad = tables.row0.copy()
        k = pick(range(1, bad.size - 1))
        bad[k] = bad[k - 1]
        tables = tables._replace(row0=bad)
    else:
        return None
    twin = copy.copy(model)
    twin._tables = tables
    return twin


class TestSweepFuzz:
    @FUZZ
    @given(batch=_batches(), lazy=st.booleans(), int64_states=st.booleans())
    def test_matches_the_numpy_sweep(self, batch, lazy, int64_states):
        models, n, specs = batch
        arena = _arena(models, True, int64_states)
        got = sample_paths_arena(arena, _requests(specs, lazy), n)
        if any(np.diff(models[i].tables.indptr).max(initial=0) > 64 for i, _, _, _ in specs):
            event("a CSR row wider than 64 entries")
        want = sample_paths_arena(
            _arena(models, False, int64_states), _requests(specs, lazy), n
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            np.testing.assert_array_equal(g, w)

    @FUZZ
    @given(batch=_batches(), data=st.data())
    def test_corrupted_tables_raise(self, batch, data):
        """Model tables damaged before the model's first native draw are
        refused before the kernel reads them: the boundary check runs on
        every model's first use."""
        models, n, specs = batch
        i = data.draw(st.sampled_from(sorted({i for i, _, _, _ in specs})))
        kinds = [k for k in DAMAGE if _damaged(models[i], k, lambda xs: xs[0]) is not None]
        kind = data.draw(st.sampled_from(kinds))
        event(kind)
        models = list(models)
        models[i] = _damaged(models[i], kind, lambda xs: data.draw(st.sampled_from(xs)))
        fresh = [(j, a, b, None) for j, a, b, _ in specs]
        with pytest.raises(ValueError, match="at the C boundary"):
            sample_paths_arena(_arena(models, True, False), _requests(fresh, True), n)

    @pytest.mark.parametrize("kind", DAMAGE)
    def test_every_kind_of_damage_is_refused(self, kind):
        model = _model(12, 0, 5, 5, 2, False, 3)
        damaged = _damaged(model, kind, lambda xs: xs[len(xs) // 2])
        arena = _arena([damaged], True, False)
        with pytest.raises(ValueError, match="at the C boundary"):
            sample_paths_arena(arena, _requests([(0, 0, model.t_last, None)], True), 4)


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


def _mine(indicator, times, tau, budget, shortcut, native):
    """A miner's answer, or the message of the budget error it raises."""
    try:
        return mine_objects(indicator, times, tau, budget, shortcut, native=native)
    except AprioriBudgetExceeded as exc:
        return str(exc)


class TestMinerFuzz:
    @FUZZ
    @given(data=st.data())
    def test_matches_the_python_miner(self, data):
        n_objects = data.draw(st.integers(1, 4))
        n_times = data.draw(st.integers(1, 9))
        n = data.draw(st.sampled_from([1, 2, 7, 8, 9, 63, 64, 65, 130]))
        density = data.draw(st.floats(0.0, 1.0))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        indicator = rng.uniform(size=(n_objects, n_times, n)) < density
        times = np.sort(rng.choice(100, size=n_times, replace=False))
        tau = data.draw(st.sampled_from([1.0 / n, 0.25, 0.5, 1.0]))
        budget = data.draw(st.integers(1, 200))
        shortcut = data.draw(st.booleans())
        args = (indicator, times, tau, budget, shortcut)
        assert _mine(*args, native=True) == _mine(*args, native=False)

    @pytest.mark.parametrize(
        "packed, n_worlds, tau, budget",
        [
            (np.zeros((2, 3, 2), dtype=np.int8), 9, 0.5, 10),  # dtype
            (np.zeros((2, 3, 2), dtype=np.uint8)[:, :, :1], 8, 0.5, 10),  # not contiguous
            (np.zeros((3, 2), dtype=np.uint8), 9, 0.5, 10),  # shape
            (np.zeros((2, 3, 2), dtype=np.uint8), 17, 0.5, 10),  # bytes vs worlds
            (np.zeros((2, 3, 2), dtype=np.uint8), 0, 0.5, 10),
            (np.zeros((2, 0, 2), dtype=np.uint8), 9, 0.5, 10),  # no times
            (np.zeros((1, 65, 2), dtype=np.uint8), 9, 0.5, 10),  # past one word
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, 0.0, 10),
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, float("nan"), 10),
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, 0.5, 0),  # budget
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, 0.5, 2.5),
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, 0.5, True),
            (np.zeros((2, 3, 2), dtype=np.uint8), 9, 0.5, float("inf")),
        ],
    )
    def test_bad_input_is_refused_before_c(self, packed, n_worlds, tau, budget):
        with pytest.raises(ValueError):
            native.mine_levels(packed, n_worlds, tau, budget, False)

    def test_a_budget_past_int64_is_no_budget(self):
        packed = np.packbits(np.ones((1, 4, 5), dtype=bool), axis=-1)
        mined = native.mine_levels(packed, 5, 0.5, 10**30, False)
        assert mined.exceeded is None and mined.evaluated == [15]


def _tree(seed):
    rng = np.random.default_rng(seed)
    mat = rng.uniform(size=(10, 10)) * (rng.uniform(size=(10, 10)) < 0.4)
    np.fill_diagonal(mat, 1.0)
    chain = MarkovChain(sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True)))
    db = TrajectoryDatabase(StateSpace(rng.uniform(0, 10, size=(10, 2))), chain)
    for i in range(int(rng.integers(0, 6))):
        start, life = int(rng.integers(0, 8)), int(rng.integers(0, 7))
        walk = [int(rng.integers(10))]
        for _ in range(life):
            nxt, probs = chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        fixes = sorted({0, life, *rng.integers(0, life + 1, size=2).tolist()})
        db.add_object(f"o{i}", [(start + t, walk[t]) for t in fixes])
    return USTTree(db)


class TestPruneScanFuzz:
    @FUZZ
    @given(
        seed=st.integers(0, 2**16),
        times=st.lists(st.integers(-3, 18), min_size=1, max_size=6),
        n_q=st.integers(0, 4),
        k=st.integers(1, 7),
    )
    def test_matches_the_numpy_scan(self, seed, times, n_q, k):
        tree = _tree(seed)
        times = np.array(times)
        coords = np.random.default_rng(seed).uniform(-3, 13, size=(n_q, times.size, 2))
        want = tree.prune_many(coords, times, k)
        tree.native = True
        got = tree.prune_many(coords, times, k)
        for g, w in zip(got, want):
            same_pruning(g, w)
        assert len(got) == len(want) == n_q

    def _arrays(self):
        tree = _tree(3)
        assert len(tree._ids)
        return dict(
            rect=tree._rect, segs=tree._segs, t_base=tree._t_base, t_hi=tree._t_hi,
            row_ptr=tree._row_ptr, q=np.zeros((1, 2, 2)), times=np.array([2, 3]), k=1,
        )

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("rect", lambda a: a.astype(np.float32)),
            ("rect", lambda a: a[0]),
            ("rect", lambda a: np.asfortranarray(a)),
            ("segs", lambda a: a[:, :-1]),
            ("segs", lambda a: a.astype(np.int32)),
            ("t_base", lambda a: a[:-1]),
            ("t_hi", lambda a: a.astype(float)),
            ("row_ptr", lambda a: a[1:]),
            ("q", lambda a: a[:, :1]),
            ("q", lambda a: a[..., :1]),
            ("times", lambda a: a[:0]),
            ("times", lambda a: a.astype(np.int32)),
            ("k", lambda a: 0),
            ("k", lambda a: True),
            ("k", lambda a: 1.0),
            ("row_ptr", lambda a: a + 10**6),  # rows past the table: refused in C
            ("row_ptr", lambda a: a - 10**6),
            ("t_hi", lambda a: a + 10**6),
        ],
    )
    def test_bad_input_is_refused(self, field, bad):
        arrays = self._arrays()
        arrays[field] = bad(arrays[field])
        with pytest.raises(ValueError):
            native.prune_scan(**arrays)
