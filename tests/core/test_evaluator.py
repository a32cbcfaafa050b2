"""End-to-end tests of the sampling query engine against the exact oracles."""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.exact import exact_forall_nn_over_times, exact_nn_probabilities
from repro.core.queries import Query
from tests.conftest import make_random_world


class TestEngineBasics:
    def test_invalid_construction(self, drift_db):
        with pytest.raises(ValueError):
            QueryEngine(drift_db, n_samples=0)
        with pytest.raises(ValueError):
            QueryEngine(drift_db, seed=1, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "8", None])
    def test_world_counts_are_validated_like_k(self, drift_db, bad):
        """One rule (``check_count``) wherever a world count enters: an
        integer >= 1, or a ``ValueError`` naming the value — never a
        truncated float, a bool read as 1, zero-world segments parked in
        the cache or numpy's "negative dimensions"."""
        q = Query.from_point([0.0, 0.0])
        if bad is not None:  # None is "use the engine's count"
            with pytest.raises(ValueError, match="n_samples must be"):
                QueryEngine(drift_db, n_samples=bad)
        engine = QueryEngine(drift_db, n_samples=10, seed=1)
        ids = list(drift_db.object_ids)
        for call in (
            lambda n: engine.prefetch_worlds(n_samples=n),
            lambda n: engine.distance_tensor(ids, q, [0, 1], n_samples=n),
            lambda n: engine.reverse_distance_tensors(ids, q, [0, 1], n_samples=n),
        ):
            with engine.held_batch():  # every draw lands in the world cache
                if bad is None:
                    call(bad)
                else:
                    with pytest.raises(ValueError, match="n_samples must be"):
                        call(bad)
        assert all(n == 10 for _, n in engine.worlds._entries)

    @pytest.mark.parametrize("bad", [-1, 1.5, True])
    def test_refine_cache_size_is_validated(self, drift_db, bad):
        with pytest.raises(ValueError, match="refine_cache_size must be"):
            QueryEngine(drift_db, refine_cache_size=bad)
        assert QueryEngine(drift_db, refine_cache_size=0).refine_cache_size == 0

    def test_invalid_tau(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=10, seed=0)
        q = Query.from_point([0.0, 0.0])
        with pytest.raises(ValueError):
            engine.forall_nn(q, [0], tau=1.5)

    def test_empty_region_returns_nothing(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=10, seed=0)
        q = Query.from_point([0.0, 0.0])
        res = engine.forall_nn(q, [99])
        assert res.results == [] and res.influencers == []

    def test_results_sorted_by_probability(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=200, seed=0)
        q = Query.from_point([1.5, 0.0])
        res = engine.exists_nn(q, [0, 1, 2])
        probs = [r.probability for r in res.results]
        assert probs == sorted(probs, reverse=True)

    def test_threshold_filters(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=300, seed=0)
        q = Query.from_point([0.0, 0.0])
        res = engine.forall_nn(q, [0, 1], tau=0.99)
        for r in res.results:
            assert r.probability >= 0.99


class TestAgainstExact:
    @pytest.mark.parametrize("seed", range(4))
    def test_forall_exists_converge(self, seed):
        db, rng = make_random_world(seed=seed, n_objects=3, span=4, obs_every=2)
        q = Query.from_point([5.0, 5.0])
        times = [1, 2, 3]
        exact = exact_nn_probabilities(db, q, times)
        engine = QueryEngine(db, n_samples=6000, seed=seed + 100)
        estimates = engine.nn_probabilities(q, times)
        for oid, (p_forall, p_exists) in estimates.items():
            assert p_forall == pytest.approx(exact[oid][0], abs=0.03)
            assert p_exists == pytest.approx(exact[oid][1], abs=0.03)

    def test_pruned_objects_have_zero_exact_probability(self):
        db, _ = make_random_world(seed=11, n_objects=4, span=4, obs_every=2)
        q = Query.from_point([2.0, 2.0])
        times = [1, 2, 3]
        engine = QueryEngine(db, n_samples=50, seed=0)
        pruning = engine.filter_objects(q, np.asarray(times))
        exact = exact_nn_probabilities(db, q, times)
        for oid, (_, p_exists) in exact.items():
            if oid not in pruning.influencers:
                assert p_exists == pytest.approx(0.0, abs=1e-12)

    def test_k2_converges(self):
        db, _ = make_random_world(seed=21, n_objects=4, span=4, obs_every=2)
        q = Query.from_point([5.0, 5.0])
        times = [1, 2]
        exact = exact_nn_probabilities(db, q, times, k=2)
        engine = QueryEngine(db, n_samples=6000, seed=5)
        estimates = engine.nn_probabilities(q, times, k=2)
        for oid, (p_forall, p_exists) in estimates.items():
            assert p_forall == pytest.approx(exact[oid][0], abs=0.03)
            assert p_exists == pytest.approx(exact[oid][1], abs=0.03)


class TestPruningConsistency:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_pruning_does_not_change_estimates(self, seed):
        db, _ = make_random_world(seed=seed, n_objects=5, span=6, obs_every=2)
        q = Query.from_point([4.0, 4.0])
        times = [1, 2, 3, 4]
        with_pruning = QueryEngine(db, n_samples=4000, seed=42, use_pruning=True)
        without = QueryEngine(db, n_samples=4000, seed=42, use_pruning=False)
        p_with = with_pruning.nn_probabilities(q, times)
        p_without = without.nn_probabilities(q, times)
        for oid in p_with:
            assert p_with[oid][0] == pytest.approx(p_without[oid][0], abs=0.035)
            assert p_with[oid][1] == pytest.approx(p_without[oid][1], abs=0.035)
        # Every object the pruned engine skipped must be irrelevant.
        skipped = set(p_without) - set(p_with)
        exact = exact_nn_probabilities(db, q, times)
        for oid in skipped:
            assert exact[oid][1] == pytest.approx(0.0, abs=1e-12)

    def test_candidates_subset_of_influencers(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=10, seed=0)
        q = Query.from_point([1.0, 0.0])
        res = engine.forall_nn(q, [0, 1, 2])
        assert set(res.candidates) <= set(res.influencers)


class TestPCNN:
    def test_converges_to_exact_subsets(self):
        db, _ = make_random_world(seed=13, n_objects=2, span=4, obs_every=4)
        q = Query.from_point([5.0, 5.0])
        times = [0, 1, 2]
        tau = 0.25
        exact_tables = exact_forall_nn_over_times(db, q, times)
        engine = QueryEngine(db, n_samples=8000, seed=3)
        result = engine.continuous_nn(q, times, tau=tau)
        got = {(e.object_id, e.times): e.probability for e in result.entries}
        # Every exact-qualifying set should be found with a close probability
        # (modulo sampling noise at the tau boundary).
        for oid, table in exact_tables.items():
            for subset, p in table.items():
                if p >= tau + 0.05:
                    assert (oid, subset) in got
                    assert got[(oid, subset)] == pytest.approx(p, abs=0.04)
                if p <= tau - 0.05:
                    assert (oid, subset) not in got

    def test_partial_coverage_object_can_qualify(self):
        """An object alive on part of T may still win subsets there."""
        db, _ = make_random_world(seed=2, n_objects=1, span=4, obs_every=2)
        # Second object alive only for t in [2, 6].
        from tests.conftest import make_drift_chain

        obj = db.get("o0")
        q = Query.from_state(db.space, int(obj.observations.first.state))
        engine = QueryEngine(db, n_samples=500, seed=1)
        result = engine.continuous_nn(q, [0, 1, 2], tau=0.5)
        assert len(result.entries) > 0

    def test_maximal_only(self):
        db, _ = make_random_world(seed=17, n_objects=2, span=4, obs_every=4)
        q = Query.from_point([5.0, 5.0])
        engine = QueryEngine(db, n_samples=2000, seed=7)
        full = engine.continuous_nn(q, [0, 1, 2], tau=0.2)
        condensed = engine.continuous_nn(q, [0, 1, 2], tau=0.2, maximal_only=True)
        sets_full = {(e.object_id, frozenset(e.times)) for e in full.entries}
        sets_cond = {(e.object_id, frozenset(e.times)) for e in condensed.entries}
        assert sets_cond <= sets_full
        for oid, s in sets_cond:
            assert not any(
                oid == o2 and s < s2 for o2, s2 in sets_cond
            )

    def test_sets_evaluated_counter(self, drift_db):
        engine = QueryEngine(drift_db, n_samples=100, seed=0)
        q = Query.from_point([1.0, 0.0])
        result = engine.continuous_nn(q, [0, 1, 2], tau=0.3)
        assert result.sets_evaluated >= len(result.entries)


class TestDeterminism:
    def test_same_seed_same_result(self, drift_db):
        q = Query.from_point([1.5, 0.0])
        r1 = QueryEngine(drift_db, n_samples=500, seed=9).forall_nn(q, [0, 1, 2])
        r2 = QueryEngine(drift_db, n_samples=500, seed=9).forall_nn(q, [0, 1, 2])
        assert r1.probabilities == r2.probabilities
