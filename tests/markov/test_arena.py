"""Lockstep tests for the fused multi-object sampling arena.

The arena's contract (see :mod:`repro.markov.arena`) is that a fused draw
is **bit-identical**, object by object, to the per-object compiled sampler
fed the same generators — including how far each generator is advanced, so
cached-world forward extension behaves the same on both paths.
"""

import numpy as np
import pytest

from repro.markov import native
from repro.markov.arena import (
    FUSED_DRAW_THRESHOLD,
    ArenaRequest,
    SamplingArena,
    sample_paths_arena,
)
from tests.conftest import make_random_world

pytestmark = pytest.mark.oracles


def _models(seed, n_objects=4, span=14, n_states=12, obs_every=5):
    db, _ = make_random_world(
        seed=seed,
        n_states=n_states,
        n_objects=n_objects,
        span=span,
        obs_every=obs_every,
    )
    return {o.object_id: o.compiled for o in db}


def _arena(models, ids=None, native=False):
    arena = SamplingArena(native=native)
    for oid in sorted(models) if ids is None else ids:
        arena.ensure(oid, models[oid])
    return arena


def _windows(models, rng):
    """A random sub-window of each object's span."""
    out = {}
    for oid, model in models.items():
        a = int(rng.integers(model.t_first, model.t_last))
        b = int(rng.integers(a, model.t_last + 1))
        out[oid] = (a, b)
    return out


class TestFusedDrawParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fresh_draws_bit_identical_per_object(self, seed):
        models = _models(seed)
        arena = _arena(models)
        windows = _windows(models, np.random.default_rng(100 + seed))
        n = 64

        requests = [
            ArenaRequest(oid, *windows[oid], rng=np.random.default_rng((seed, i)))
            for i, oid in enumerate(sorted(models))
        ]
        fused = sample_paths_arena(arena, requests, n)

        for i, oid in enumerate(sorted(models)):
            a, b = windows[oid]
            solo = models[oid].sample_paths(np.random.default_rng((seed, i)), n, a, b)
            assert np.array_equal(fused[i], solo), oid

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rng_parked_exactly_like_per_object_draws(self, seed):
        """After a fused draw every request's generator must sit exactly
        where the per-object sampler would have left it (the world cache
        resumes these streams)."""
        models = _models(seed)
        arena = _arena(models)
        windows = _windows(models, np.random.default_rng(200 + seed))
        rngs = {oid: np.random.default_rng((seed, 9, i)) for i, oid in enumerate(sorted(models))}
        requests = [
            ArenaRequest(oid, *windows[oid], rng=rngs[oid]) for oid in sorted(models)
        ]
        sample_paths_arena(arena, requests, 32)
        for i, oid in enumerate(sorted(models)):
            solo_rng = np.random.default_rng((seed, 9, i))
            models[oid].sample_paths(solo_rng, 32, *windows[oid])
            assert np.array_equal(rngs[oid].random(5), solo_rng.random(5)), oid

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resumed_draws_match_one_shot(self, seed):
        """head + fused resume == one-shot per-object draw, bit for bit."""
        models = _models(seed, span=16)
        arena = _arena(models)
        n = 48
        heads, requests, splits = {}, [], {}
        for i, oid in enumerate(sorted(models)):
            model = models[oid]
            a, b = model.t_first, model.t_last
            mid = (a + b) // 2
            rng = np.random.default_rng((seed, 7, i))
            heads[oid] = (model.sample_paths(rng, n, a, mid), rng)
            splits[oid] = (a, mid, b)
            requests.append(
                ArenaRequest(oid, mid, b, rng, start_states=heads[oid][0][:, -1])
            )
        grown = sample_paths_arena(arena, requests, n)
        for i, oid in enumerate(sorted(models)):
            a, mid, b = splits[oid]
            assert np.array_equal(grown[i][:, 0], heads[oid][0][:, -1])
            full = np.concatenate([heads[oid][0], grown[i][:, 1:]], axis=1)
            one_shot = models[oid].sample_paths(
                np.random.default_rng((seed, 7, i)), n, a, b
            )
            assert np.array_equal(full, one_shot), oid

    def test_mixed_fresh_and_resumed_in_one_pass(self):
        models = _models(5, n_objects=3, span=12)
        arena = _arena(models)
        ids = sorted(models)
        n = 40
        m0 = models[ids[0]]
        rng0 = np.random.default_rng(40)
        mid = (m0.t_first + m0.t_last) // 2
        head = m0.sample_paths(rng0, n, m0.t_first, mid)
        requests = [
            ArenaRequest(ids[0], mid, m0.t_last, rng0, start_states=head[:, -1]),
            ArenaRequest(
                ids[1], models[ids[1]].t_first, models[ids[1]].t_last,
                np.random.default_rng(41),
            ),
            ArenaRequest(
                ids[2], models[ids[2]].t_first, models[ids[2]].t_first,
                np.random.default_rng(42),
            ),
        ]
        out = sample_paths_arena(arena, requests, n)
        resume_solo_rng = np.random.default_rng(40)
        solo_head = m0.sample_paths(resume_solo_rng, n, m0.t_first, mid)
        solo_tail = m0.sample_paths(
            resume_solo_rng, n, mid, m0.t_last, start_states=solo_head[:, -1]
        )
        assert np.array_equal(out[0], solo_tail)
        assert np.array_equal(
            out[1],
            models[ids[1]].sample_paths(
                np.random.default_rng(41),
                n,
                models[ids[1]].t_first,
                models[ids[1]].t_last,
            ),
        )
        # A one-tic window consumes only the initial variate block.
        assert out[2].shape == (n, 1)

    def test_request_order_does_not_change_results(self):
        models = _models(6)
        arena = _arena(models)
        ids = sorted(models)
        windows = {oid: (models[oid].t_first, models[oid].t_last) for oid in ids}

        def draw(order):
            requests = [
                ArenaRequest(oid, *windows[oid], rng=np.random.default_rng(hash(oid) % 2**32))
                for oid in order
            ]
            return {
                oid: states
                for oid, states in zip(order, sample_paths_arena(arena, requests, 24))
            }

        forward = draw(ids)
        backward = draw(ids[::-1])
        for oid in ids:
            assert np.array_equal(forward[oid], backward[oid])


class TestArenaValidation:
    def test_unknown_object_raises(self):
        arena = _arena(_models(0))
        with pytest.raises(KeyError, match="not packed"):
            sample_paths_arena(
                arena, [ArenaRequest("ghost", 0, 1, np.random.default_rng(0))], 4
            )

    def test_window_outside_span_raises(self):
        models = _models(0)
        arena = _arena(models)
        oid = sorted(models)[0]
        with pytest.raises(KeyError, match="outside adapted span"):
            sample_paths_arena(
                arena,
                [ArenaRequest(oid, models[oid].t_last, models[oid].t_last + 5,
                              np.random.default_rng(0))],
                4,
            )

    def test_empty_window_raises(self):
        models = _models(0)
        arena = _arena(models)
        oid = sorted(models)[0]
        with pytest.raises(ValueError, match="empty sampling window"):
            sample_paths_arena(
                arena,
                [ArenaRequest(oid, models[oid].t_last, models[oid].t_first,
                              np.random.default_rng(0))],
                4,
            )

    def test_bad_start_shape_raises(self):
        models = _models(0)
        arena = _arena(models)
        oid = sorted(models)[0]
        with pytest.raises(ValueError, match="shape"):
            sample_paths_arena(
                arena,
                [ArenaRequest(oid, models[oid].t_first, models[oid].t_last,
                              np.random.default_rng(0),
                              start_states=np.zeros(3, dtype=np.intp))],
                8,
            )

    def test_ensure_is_idempotent_and_lazy_tables_rebuild(self):
        models = _models(1, n_objects=2)
        ids = sorted(models)
        arena = SamplingArena()
        arena.ensure(ids[0], models[ids[0]])
        assert len(arena) == 1
        arena.ensure(ids[0], models[ids[0]])
        assert len(arena) == 1
        t = models[ids[0]].t_first
        before = arena.table(t)
        # A new object covering t must appear in the rebuilt fused table.
        arena.ensure(ids[1], models[ids[1]])
        after = arena.table(t)
        assert after is not before
        assert (arena.block(ids[1]) in after.row_base) == models[ids[1]].covers(t)

    def test_empty_request_list(self):
        arena = _arena(_models(0))
        assert sample_paths_arena(arena, [], 4) == []

    def test_table_cache_is_true_lru(self):
        """Hits refresh recency: re-entering a hot tic must not let a
        later build evict it (the FIFO regression this pins down)."""
        models = _models(2, n_objects=2)
        arena = _arena(models)
        arena.table_capacity = 2
        model = models[sorted(models)[0]]
        assert model.t_last - model.t_first >= 2
        t0, t1, t2 = (model.t_first + i for i in range(3))
        arena.table(t0)
        arena.table(t1)
        assert arena.table_builds == 2
        arena.table(t0)  # cache hit — under true LRU, t1 is now oldest
        assert arena.table_builds == 2
        arena.table(t2)  # over capacity: evicts t1, not the just-hit t0
        assert arena.table_builds == 3
        arena.table(t0)  # still cached; a FIFO cache would rebuild here
        assert arena.table_builds == 3
        arena.table(t1)  # the genuinely coldest entry was the one evicted
        assert arena.table_builds == 4

    def test_ensure_reuses_cached_max_state_across_churn(self):
        """Registration reads the cached span maximum: a churny ingest
        stream (discard + re-ensure per observation) must not pay the
        O(span) support rescan per registration."""
        models = _models(4, n_objects=1)
        oid = sorted(models)[0]
        model = models[oid]
        assert model._max_state is None
        arena = SamplingArena()
        arena.ensure(oid, model)
        expected = max(
            int(model.support_at(t)[-1])
            for t in range(model.t_first, model.t_last + 1)
        )
        assert model._max_state == expected
        # Booby-trap the support tables: any rescan during re-registration
        # would now blow up instead of silently re-walking the span.
        real = model._tables, model._parts
        model._tables, model._parts = None, None
        try:
            for _ in range(20):
                assert arena.discard(oid) is True
                arena.ensure(oid, model)
        finally:
            model._tables, model._parts = real
        assert arena.states_dtype == np.dtype(np.int32)

    def test_states_dtype_promotes_exactly_at_int32_max(self):
        """int32 packed states up to and including max-1; the first model
        whose ids could collide with int32 sentinels promotes to intp,
        and the promotion is sticky."""

        class _SpanStub:
            def __init__(self, max_state):
                self.max_state = max_state

            def covers(self, t):
                return False

        boundary = np.iinfo(np.int32).max
        arena = SamplingArena()
        arena.ensure("small", _SpanStub(boundary - 1))
        assert arena.states_dtype == np.dtype(np.int32)
        arena.ensure("big", _SpanStub(boundary))
        assert arena.states_dtype == np.dtype(np.intp)
        arena.ensure("small-after", _SpanStub(5))
        assert arena.states_dtype == np.dtype(np.intp)

        fresh = SamplingArena()
        fresh.ensure("big", _SpanStub(boundary))
        assert fresh.states_dtype == np.dtype(np.intp)

    def test_churn_leaves_bounded_state(self):
        """A long-running churn (discard + re-ensure per ingest, forever)
        leaves one block per live object and at most one table per tic —
        and fused draws after it stay bit-identical to a fresh arena's."""
        models = _models(3, n_objects=FUSED_DRAW_THRESHOLD + 1)
        ids = sorted(models)
        arena = _arena(models)
        assert arena.discard("nope") is False
        horizon = {t for m in models.values() for t in range(m.t_first, m.t_last + 1)}
        for i in range(1000):
            oid = ids[i % len(ids)]
            assert arena.discard(oid) is True
            arena.ensure(oid, models[oid])
            if i % 97 == 0:
                _draw_all(arena, models, seed=i)
        assert len(arena) == len(ids)
        assert len(arena._tables) <= len(horizon)
        assert sorted(vars(arena)) == sorted(vars(_arena(models)))
        np.testing.assert_array_equal(
            np.concatenate(_draw_all(arena, models, seed=9), axis=1),
            np.concatenate(_draw_all(_arena(models), models, seed=9), axis=1),
        )

    @pytest.mark.parametrize("c_sweep", [False, True], ids=["numpy", "c"])
    def test_registration_order_draws_identical_bytes(self, c_sweep):
        """Registering the same objects in two orders draws the same bytes:
        the arena keeps no order and no positions."""
        if c_sweep and not native.available():
            pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
        models = _models(5, n_objects=FUSED_DRAW_THRESHOLD + 3)
        ids = sorted(models)
        forward = _arena(models, ids, native=c_sweep)
        backward = _arena(models, ids[::-1], native=c_sweep)
        for seed in range(3):
            a = _draw_all(forward, models, seed, windows=True)
            b = _draw_all(backward, models, seed, windows=True)
            for x, y in zip(a, b):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _draw_all(arena, models, seed, windows=False):
    """Every object drawn in one (fused) call, each from its own stream."""
    spans = (
        _windows(models, np.random.default_rng(seed))
        if windows
        else {oid: (m.t_first, m.t_last) for oid, m in models.items()}
    )
    requests = [
        ArenaRequest(oid, *spans[oid], np.random.default_rng([seed, i]))
        for i, oid in enumerate(sorted(models))
    ]
    return sample_paths_arena(arena, requests, 16)
