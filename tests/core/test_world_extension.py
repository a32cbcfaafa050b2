"""Forward extension of cached worlds: growth must be invisible.

The window-restricted cache contract (see :mod:`repro.core.worlds`) rests on
one bit-level invariant: a world grown forward across ``k`` batches is
**identical** to sampling the union window in one shot, by the sampler and
by its row-dict oracle alike — the per-object RNG stream is consumed the same way no matter how the window
was carved up.  These property-style tests drive random window sequences
through both the raw resumable samplers and the full engine, and pin the
backward-request fallback (fresh union redraw, never a splice).
"""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from tests.conftest import make_random_world
from tests.oracles import checking_distances, reference_sample_paths
from tests.oracles.shapes import BACKENDS

pytestmark = pytest.mark.oracles

#: name -> ``sample(model, rng, n, t_start, t_end, start_states=None)``.
SAMPLERS = {
    "compiled": lambda model, *args, **kw: model.sample_paths(*args, **kw),
    "reference": reference_sample_paths,
}


def _adapted_model(seed: int, span: int = 16):
    db, _ = make_random_world(seed=seed, n_states=10, n_objects=1, span=span, obs_every=5)
    return next(iter(db)).adapted


def _random_cuts(rng: np.random.Generator, a: int, b: int, k: int) -> list[int]:
    """k interior cut points partitioning [a, b] into forward batches."""
    interior = rng.choice(np.arange(a + 1, b), size=min(k, b - a - 1), replace=False)
    return sorted(int(c) for c in interior)


class TestResumableSamplers:
    """Model-level: grown draws equal one-shot draws, stream-for-stream."""

    @pytest.mark.parametrize("sampler", sorted(SAMPLERS))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_grown_paths_bit_identical_to_one_shot(self, sampler, seed):
        sample = SAMPLERS[sampler]
        model = _adapted_model(seed)
        a, b = model.t_first, model.t_last
        rng = np.random.default_rng(1000 + seed)
        cuts = _random_cuts(rng, a, b, k=int(rng.integers(1, 4)))
        n = 64

        one_shot = sample(model, np.random.default_rng(seed), n, a, b)

        grower = np.random.default_rng(seed)
        bounds = [a, *cuts, b]
        parts = [sample(model, grower, n, bounds[0], bounds[1])]
        for lo, hi in zip(bounds[1:], bounds[2:]):
            grown = sample(model, grower, n, lo, hi, start_states=parts[-1][:, -1])
            # First column echoes the resume states; keep the new tics only.
            assert np.array_equal(grown[:, 0], parts[-1][:, -1])
            parts.append(grown[:, 1:])
        assert np.array_equal(np.concatenate(parts, axis=1), one_shot)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backends_stay_in_lockstep_when_resumed(self, seed):
        """Compiled and reference resumable paths consume the stream
        identically — resumed draws are bit-equal across the two."""
        model = _adapted_model(seed)
        a, b = model.t_first, model.t_last
        mid = (a + b) // 2
        n = 50
        out = {}
        for name, sample in SAMPLERS.items():
            rng = np.random.default_rng(77 + seed)
            head = sample(model, rng, n, a, mid)
            tail = sample(model, rng, n, mid, b, start_states=head[:, -1])
            out[name] = np.concatenate([head, tail[:, 1:]], axis=1)
        assert np.array_equal(out["compiled"], out["reference"])

    def test_resume_rejects_states_outside_posterior_support(self):
        model = _adapted_model(0)
        a = model.t_first
        bogus = np.full(8, 10_000, dtype=np.intp)
        with pytest.raises(ValueError, match="support"):
            model.sample_paths(
                np.random.default_rng(0),
                8,
                a,
                model.t_last,
                start_states=bogus,
            )

    def test_resume_rejects_wrong_shape(self):
        model = _adapted_model(0)
        with pytest.raises(ValueError, match="shape"):
            model.sample_paths(
                np.random.default_rng(0),
                8,
                model.t_first,
                model.t_last,
                start_states=np.zeros(3, dtype=np.intp),
            )


class TestEngineGrowth:
    """Engine-level: k held-epoch batches == one union batch, bit for bit."""

    def _world(self, seed):
        db, _ = make_random_world(
            seed=seed, n_states=9, n_objects=4, span=12, obs_every=4
        )
        return db

    def _engines(self, db, backend, seed=42, n_samples=150):
        # use_pruning=False so every object is refined by every query: all
        # segments are anchored by the first batch, which is what makes the
        # incremental and one-shot runs comparable object by object.
        def mk():
            return QueryEngine(
                db, n_samples=n_samples, seed=seed, backend=backend, use_pruning=False
            )

        return mk(), mk()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [5, 6, 7, 8])
    def test_incremental_batches_match_one_shot_union(self, backend, seed):
        db = self._world(seed)
        q = Query.from_point([5.0, 5.0])
        rng = np.random.default_rng(300 + seed)
        span_hi = 12

        # Random forward window sequence: later windows start at or after
        # the first batch's anchor and may reach arbitrarily far forward.
        a0 = int(rng.integers(0, 4))
        windows = [(a0, int(rng.integers(a0, a0 + 3)))]
        for _ in range(int(rng.integers(2, 5))):
            lo = int(rng.integers(a0, span_hi))
            hi = int(rng.integers(lo, span_hi))
            windows.append((lo, hi))
        requests = [
            QueryRequest(q, tuple(range(lo, hi + 1)), "forall") for lo, hi in windows
        ]

        grown_engine, oneshot_engine = self._engines(db, backend, seed=42)

        grown_results = grown_engine.evaluate_many([requests[0]])
        for req in requests[1:]:
            grown_results += grown_engine.evaluate_many([req], refresh_worlds=False)
        oneshot_results = oneshot_engine.evaluate_many(requests)

        for a, b in zip(grown_results, oneshot_results):
            assert a.probabilities == b.probabilities

        # The cached segments themselves are bit-identical, not just the
        # derived probabilities.
        for obj in db:
            key = (obj.object_id, 150)
            seg_a = grown_engine.worlds.peek(key)
            seg_b = oneshot_engine.worlds.peek(key)
            assert (seg_a is None) == (seg_b is None)
            if seg_a is not None:
                assert seg_a.t_first == seg_b.t_first
                assert np.array_equal(seg_a.states, seg_b.states)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backward_request_falls_back_to_fresh_draw(self, backend):
        """A window reaching before the cached anchor redraws the union
        window from a restarted per-object stream — exactly the worlds an
        engine would have drawn had that window come first — rather than
        splicing new early columns onto the cached suffix."""
        db = self._world(9)
        q = Query.from_point([5.0, 5.0])

        engine, fresh = self._engines(db, backend, seed=7, n_samples=120)
        engine.evaluate_many([QueryRequest(q, tuple(range(6, 10)), "forall")])
        key = next((o.object_id, 120) for o in db)
        before = engine.worlds.peek(key).states.copy()
        misses_before = engine.worlds.misses.value
        partial_before = engine.worlds.partial_hits.value

        engine.evaluate_many(
            [QueryRequest(q, tuple(range(2, 10)), "forall")], refresh_worlds=False
        )
        seg = engine.worlds.peek(key)
        # Accounting: one fresh draw per object, never an extension.
        assert engine.worlds.misses.value == misses_before + len(db)
        assert engine.worlds.partial_hits.value == partial_before
        # Union coverage, anchored at the new start.
        assert seg.t_first == 2 and seg.t_last == 9
        # No splice: the overlap columns were redrawn, not preserved.
        assert not np.array_equal(seg.states[:, 6 - 2 :], before)

        # Restart property: a same-seed engine asking for [2, 9] in its
        # first batch draws exactly these worlds.
        fresh.evaluate_many([QueryRequest(q, tuple(range(2, 10)), "forall")])
        seg_fresh = fresh.worlds.peek(key)
        assert np.array_equal(seg.states, seg_fresh.states)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_preserves_oracle_parity_at_query_level(self, backend):
        """Growing across batches must keep parity with the per-object
        row-dict loop: every refinement of the request sequence — the
        grown one and the backward redraw included — is the oracle's."""
        db = self._world(11)
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(db, n_samples=200, seed=3, backend=backend)
        with checking_distances(engine) as checked:
            engine.evaluate_many([QueryRequest(q, (2, 3, 4), "forall")])
            for times in ((4, 5, 6, 7), (5, 6), (1, 2, 3)):
                engine.evaluate_many(
                    [QueryRequest(q, times, "forall")], refresh_worlds=False
                )
        assert len(checked) == 4
        assert engine.worlds.partial_hits.value > 0 and engine.worlds.hits.value > 0
