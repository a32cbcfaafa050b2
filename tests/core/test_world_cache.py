"""World-cache correctness: reuse, epochs, staleness, oracle parity.

Covers the engine-level guarantees of the compiled-sampling refactor:
batched queries sample each object at most once per draw epoch, database
mutations invalidate both the UST-tree and the world cache, and every
refinement is the per-object row-dict loop's, bit for bit.
"""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.core.results import PCNNResult, QueryResult
from tests.conftest import make_drift_chain, make_line_space, make_random_world
from tests.oracles import checking_distances
from repro.trajectory.database import TrajectoryDatabase


@pytest.fixture
def world():
    db, _ = make_random_world(seed=7, n_objects=5, span=8, obs_every=3)
    return db


class TestBatchQueryReuse:
    def test_sliding_window_samples_each_object_once(self, world):
        engine = QueryEngine(world, n_samples=200, seed=1)
        q = Query.from_point([5.0, 5.0])
        requests = [
            QueryRequest(q, tuple(range(t, t + 3)), "forall") for t in range(6)
        ]
        results = engine.evaluate_many(requests)
        assert len(results) == len(requests)
        # The sampler-call counter: at most one sampler invocation per
        # object per draw epoch, no matter how many windows touched it.
        assert engine.sampler_calls <= len(world)
        assert engine.worlds.hits.value > 0

    def test_batch_samples_only_union_window(self, world):
        """Window restriction: a batch draws each object over the union of
        the requested times clamped to its span, not the full span."""
        engine = QueryEngine(world, n_samples=50, seed=21)
        q = Query.from_point([5.0, 5.0])
        engine.evaluate_many([QueryRequest(q, (2, 3)), QueryRequest(q, (3, 4))])
        segments = [
            engine.worlds.peek((o.object_id, 50)) for o in world
        ]
        segments = [s for s in segments if s is not None]
        assert segments, "batch should have populated the cache"
        for seg in segments:
            assert seg.t_first >= 2 and seg.t_last <= 4

    def test_second_batch_resamples_by_default(self, world):
        engine = QueryEngine(world, n_samples=100, seed=2)
        q = Query.from_point([5.0, 5.0])
        reqs = [QueryRequest(q, (1, 2, 3))]
        engine.evaluate_many(reqs)
        first = engine.sampler_calls
        engine.evaluate_many(reqs)
        assert engine.sampler_calls > first  # fresh epoch, fresh worlds

    def test_batch_can_extend_previous_epoch(self, world):
        engine = QueryEngine(world, n_samples=100, seed=2)
        q = Query.from_point([5.0, 5.0])
        engine.evaluate_many([QueryRequest(q, (1, 2, 3))])
        first = engine.sampler_calls
        engine.evaluate_many([QueryRequest(q, (2, 3, 4))], refresh_worlds=False)
        assert engine.sampler_calls == first  # same epoch: no full redraw
        # The shifted window grew each cached segment forward — a partial
        # hit (resumed draw), counted as neither hit nor miss.
        assert engine.worlds.partial_hits.value > 0
        assert engine.worlds.misses.value == first

    def test_held_epoch_survives_interleaved_standalone_query(self, world):
        """Regression: refresh_worlds=False extends the previous *batch's*
        worlds even when standalone queries advanced the epoch in between."""
        engine = QueryEngine(world, n_samples=300, seed=13)
        q = Query.from_point([5.0, 5.0])
        reqs = [QueryRequest(q, (1, 2, 3)), QueryRequest(q, (2, 3, 4))]
        first = engine.evaluate_many(reqs)
        engine.forall_nn(q, [1, 2])  # interleaved one-off: bumps the epoch
        second = engine.evaluate_many(reqs, refresh_worlds=False)
        for a, b in zip(first, second):
            assert a.probabilities == b.probabilities

    def test_repeated_distance_tensor_draws_fresh_worlds(self, world):
        """Direct distance_tensor calls must stay averageable: two calls in
        one epoch may not return identical tensors (regression)."""
        engine = QueryEngine(world, n_samples=100, seed=14)
        q = Query.from_point([5.0, 5.0])
        oid = next(o.object_id for o in world if o.covers_all(np.array([1, 2])))
        d1 = engine.distance_tensor([oid], q, np.array([1, 2]))
        d2 = engine.distance_tensor([oid], q, np.array([1, 2]))
        assert not np.array_equal(d1, d2)

    def test_identical_requests_in_batch_consistent(self, world):
        """Regression: standalone queries interleaved with a held-epoch batch
        must not leak partial worlds — identical requests in one batch agree
        even when a wider request sits between them."""
        engine = QueryEngine(world, n_samples=200, seed=6)
        q = Query.from_point([5.0, 5.0])
        # Establish a batch epoch, then interleave a standalone query so the
        # held batch below really does run against a previously-used epoch.
        engine.evaluate_many([QueryRequest(q, (2, 3, 4))])
        engine.forall_nn(q, [2, 3, 4])
        out = engine.evaluate_many(
            [
                QueryRequest(q, (2, 3)),
                QueryRequest(q, (1, 2, 3, 4, 5)),
                QueryRequest(q, (2, 3)),
            ],
            refresh_worlds=False,
        )
        assert out[0].probabilities == out[2].probabilities
        # And the held batch sampled each object at most once.
        assert engine.worlds.misses.value <= 2 * len(world)

    def test_backward_batch_window_in_held_batch_redraws(self, world):
        """A held-epoch window that reaches *backward* cannot extend the
        cached paths soundly; the engine redraws the union window fresh
        (one miss, no splice) — the new segment contract."""
        engine = QueryEngine(world, n_samples=200, seed=15)
        q = Query.from_point([5.0, 5.0])
        with engine.held_batch():
            engine.forall_nn(q, [2, 3])
            misses = engine.worlds.misses.value
            partial = engine.worlds.partial_hits.value
            # backward: redraw
            engine.evaluate_many([QueryRequest(q, (1, 2, 3))], refresh_worlds=False)
        assert engine.worlds.misses.value > misses
        assert engine.worlds.partial_hits.value == partial

    def test_mixed_modes_share_worlds(self, world):
        engine = QueryEngine(world, n_samples=150, seed=3)
        q = Query.from_point([5.0, 5.0])
        out = engine.evaluate_many(
            [
                QueryRequest(q, (1, 2, 3), "forall"),
                QueryRequest(q, (1, 2, 3), "exists"),
                QueryRequest(q, (1, 2, 3), "pcnn", 0.3),
            ]
        )
        assert isinstance(out[0], QueryResult)
        assert isinstance(out[1], QueryResult)
        assert isinstance(out[2], PCNNResult)
        assert engine.sampler_calls <= len(world)
        # Shared worlds make ∃ ≥ ∀ exact, not just statistical.
        for oid, p_forall in out[0].probabilities.items():
            assert out[1].probabilities[oid] >= p_forall - 1e-12

    def test_tuple_requests_coerced(self, world):
        engine = QueryEngine(world, n_samples=50, seed=4)
        q = Query.from_point([5.0, 5.0])
        out = engine.evaluate_many([(q, (1, 2)), (q, (2, 3), "exists")])
        assert all(isinstance(r, QueryResult) for r in out)

    def test_empty_batch_returns_empty_without_epoch_churn(self, world):
        engine = QueryEngine(world, n_samples=50, seed=17)
        epoch = engine.draw_epoch
        assert engine.evaluate_many([]) == []  # even refresh_worlds=True
        assert engine.draw_epoch == epoch  # no held worlds dropped

    def test_bad_mode_rejected(self, world):
        q = Query.from_point([0.0, 0.0])
        with pytest.raises(ValueError, match="mode"):
            QueryRequest(q, (1, 2), "sometimes")


class TestEpochSemantics:
    def test_standalone_queries_draw_fresh_worlds(self, world):
        engine = QueryEngine(world, n_samples=100, seed=5)
        q = Query.from_point([5.0, 5.0])
        e0 = engine.draw_epoch
        engine.forall_nn(q, [1, 2, 3])
        e1 = engine.draw_epoch
        engine.forall_nn(q, [1, 2, 3])
        assert e1 > e0 and engine.draw_epoch > e1

    def test_held_batch_holds_epoch(self, world):
        engine = QueryEngine(world, n_samples=100, seed=5, refine_cache_size=0)
        q = Query.from_point([5.0, 5.0])
        with engine.held_batch():
            r1 = engine.forall_nn(q, [1, 2, 3])
            calls = engine.sampler_calls
            r2 = engine.forall_nn(q, [1, 2, 3])
            assert engine.sampler_calls == calls  # no resampling
            assert r1.probabilities == r2.probabilities  # literally same worlds
            engine.new_draw_epoch()
            engine.forall_nn(q, [1, 2, 3])
            assert engine.sampler_calls > calls
            calls = engine.sampler_calls
        engine.forall_nn(q, [1, 2, 3])  # outside the batch: fresh again
        assert engine.sampler_calls > calls

    def test_determinism_across_engines(self, world):
        q = Query.from_point([5.0, 5.0])
        reqs = [QueryRequest(q, tuple(range(t, t + 3))) for t in range(4)]
        r1 = QueryEngine(world, n_samples=300, seed=9).evaluate_many(reqs)
        r2 = QueryEngine(world, n_samples=300, seed=9).evaluate_many(reqs)
        for a, b in zip(r1, r2):
            assert a.probabilities == b.probabilities


class TestOracleParityAtQueryLevel:
    """Same seed + fixed database ⇒ the worlds a query counts over are the
    per-object row-dict loop's (``tests.oracles.loop_distance_tensor``)."""

    def test_forall_refinement_bit_identical(self, world):
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(world, n_samples=400, seed=11)
        with checking_distances(engine) as checked:
            assert engine.forall_nn(q, [1, 2, 3]).probabilities
        assert len(checked) == 1

    def test_pcnn_refinement_bit_identical(self, world):
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(world, n_samples=300, seed=12)
        with checking_distances(engine) as checked:
            assert engine.continuous_nn(q, [1, 2, 3, 4], tau=0.2).entries
        assert len(checked) == 1

    @pytest.mark.parametrize("backend", ["quantum", "reference"])
    def test_unknown_backend_rejected(self, world, backend):
        with pytest.raises(ValueError, match="backend"):
            QueryEngine(world, n_samples=10, seed=0, backend=backend)


class TestStaleWorldRegression:
    """Mutations must invalidate both the UST-tree and the world cache."""

    @pytest.fixture
    def db(self):
        db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
        db.add_object("a", [(0, 0), (4, 2)])
        db.add_object("b", [(0, 1), (4, 3)])
        return db

    def test_add_observation_invalidates_worlds(self, db):
        engine = QueryEngine(db, n_samples=2000, seed=0)
        q = Query.from_point([0.0, 0.0])
        with engine.held_batch():
            engine.forall_nn(q, [2])
            calls = engine.sampler_calls
            updates = engine.index_updates.value
            v_before = db.version
            # Pin "a" at state 2 at t=2: its worlds *must* be redrawn, even in
            # a held batch, or the query would answer from a stale database.
            db.add_observation("a", 2, 2)
            assert db.version == v_before + 1
            res = engine.forall_nn(q, [2])
            assert engine.sampler_calls > calls  # the mutated object resampled
            assert engine.index_updates.value > updates  # index re-indexed "a" in place
            assert engine.worlds_invalidated.value >= 1  # "a"'s segment dropped
            # Every sampled world of "a" now sits at state 2 (posterior is a
            # point mass), so its NN probability against q=(0,0) is exact.
            dist = engine.distance_tensor(["a"], q, np.array([2]))
            assert np.allclose(dist, 2.0)
            assert res.n_samples == 2000

    def test_add_observation_invalidates_worlds_past_the_mutation_log(self, db):
        """A mutation the log cannot name (``MUTATION_LOG_LIMIT`` exceeded)
        keeps the classic wholesale semantics: the index is rebuilt and
        every cached world flushed."""
        db.MUTATION_LOG_LIMIT = 0
        engine = QueryEngine(db, n_samples=500, seed=0, refine_cache_size=0)
        q = Query.from_point([0.0, 0.0])
        with engine.held_batch():
            engine.forall_nn(q, [2])
            misses = engine.worlds.misses.value
            tree_before = engine.ust_tree
            token = engine.worlds_token
            db.add_observation("a", 2, 2)
            engine.forall_nn(q, [2])
            assert engine.worlds_token > token  # full flush
            assert engine.worlds.misses.value >= misses + 2  # every object redrawn
            assert engine.ust_tree is not tree_before  # index rebuilt

    def test_remove_object_invalidates_worlds(self, db):
        engine = QueryEngine(db, n_samples=500, seed=1)
        q = Query.from_point([0.0, 0.0])
        with engine.held_batch():
            before = engine.forall_nn(q, [1, 2])
            assert "b" in before.probabilities
            v = db.version
            db.remove_object("b")
            assert db.version == v + 1
            after = engine.forall_nn(q, [1, 2])
            assert "b" not in after.probabilities
            assert after.probabilities["a"] == pytest.approx(1.0)

    def test_cache_stamp_tracks_token_and_epoch(self, db):
        engine = QueryEngine(db, n_samples=50, seed=2)
        q = Query.from_point([0.0, 0.0])
        with engine.held_batch():
            engine.forall_nn(q, [1])
            assert engine.worlds.stamp == (engine.worlds_token, engine.draw_epoch)
            # A selective invalidation keeps the token: only the
            # mutated object's entry is dropped, the stamp stays valid.
            db.add_observation("a", 2, 1)
            engine.forall_nn(q, [1])
            assert engine.worlds.stamp == (engine.worlds_token, engine.draw_epoch)
            assert engine.worlds_token == 0
        # A wholesale flush (the log cannot name the delta) advances the
        # token instead.
        blunt = QueryEngine(db, n_samples=50, seed=2)
        with blunt.held_batch():
            blunt.forall_nn(q, [1])
            db.MUTATION_LOG_LIMIT = 0
            db.add_observation("a", 3, 2)
            blunt.forall_nn(q, [1])
            assert blunt.worlds_token == 1
            assert blunt.worlds.stamp == (blunt.worlds_token, blunt.draw_epoch)

    def test_invalidate_objects_leaves_others_bit_identical(self, world):
        """The per-object invalidation contract: dropping one object's
        segments must leave every other entry byte-identical — same array
        contents *and* the same parked RNG stream — unlike a full flush."""
        engine = QueryEngine(world, n_samples=80, seed=19)
        q = Query.from_point([5.0, 5.0])
        engine.evaluate_many([QueryRequest(q, (2, 3, 4))])
        keys = [
            (o.object_id, 80)
            for o in world
            if engine.worlds.peek((o.object_id, 80)) is not None
        ]
        assert len(keys) >= 2
        victim, survivors = keys[0], keys[1:]
        snapshots = {
            key: (
                engine.worlds.peek(key),
                engine.worlds.peek(key).states.copy(),
                engine.worlds.peek(key).rng.bit_generator.state,
            )
            for key in survivors
        }
        counters = (
            engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value
        )
        dropped = engine.worlds.invalidate_objects([victim[0]])
        assert dropped == 1
        assert engine.worlds.peek(victim) is None
        for key, (segment, states, rng_state) in snapshots.items():
            survivor = engine.worlds.peek(key)
            assert survivor is segment  # the very same object, untouched
            np.testing.assert_array_equal(survivor.states, states)
            assert survivor.rng.bit_generator.state == rng_state
        assert counters == (
            engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value
        )
        # The full-flush ablation drops everything, survivors included.
        engine.worlds.clear()
        assert all(engine.worlds.peek(key) is None for key in survivors)

    def test_default_standalone_queries_bypass_cache(self, db):
        # Only full-span entries ever enter the cache; a fresh-epoch
        # standalone query samples its window directly.
        engine = QueryEngine(db, n_samples=50, seed=3)
        q = Query.from_point([0.0, 0.0])
        engine.forall_nn(q, [1, 2])
        assert len(engine.worlds) == 0
        assert engine.sampler_calls > 0  # direct draws still counted
