"""Cross-module integration tests: full pipelines on generated datasets."""

import numpy as np
import pytest

from repro import Query, QueryEngine, Trajectory
from repro.analysis.hoeffding import samples_needed
from repro.core.bounds import forall_nn_bounds
from repro.core.snapshot import snapshot_probabilities
from repro.data.synthetic import SyntheticWorkloadConfig, generate_workload
from repro.data.taxi import TaxiConfig, generate_taxi_dataset
from repro.markov.adaptation import ObservationContradictionError


@pytest.fixture(scope="module")
def synthetic():
    cfg = SyntheticWorkloadConfig(
        n_states=800, n_objects=25, lifetime=30, horizon=60, obs_interval=6
    )
    return generate_workload(cfg, np.random.default_rng(3))


@pytest.fixture(scope="module")
def taxi():
    cfg = TaxiConfig(
        n_taxis=15,
        n_training_taxis=20,
        lifetime=30,
        horizon=60,
        obs_interval=6,
        blocks=7,
        core_blocks=3,
    )
    return generate_taxi_dataset(cfg, np.random.default_rng(4))


class TestSyntheticPipeline:
    def test_all_three_semantics_run(self, synthetic):
        db = synthetic.db
        engine = QueryEngine(db, n_samples=300, seed=0)
        q = Query.from_state(db.space, synthetic.sample_query_state())
        times = synthetic.sample_query_times(6)

        forall_res = engine.forall_nn(q, times)
        exists_res = engine.exists_nn(q, times)
        pcnn_res = engine.continuous_nn(q, times, tau=0.4)

        # Internal consistency across semantics on the same engine seed
        # cannot be exact (independent sampling runs), but structural
        # relations must hold.
        assert set(forall_res.candidates) <= set(exists_res.influencers)
        for entry in pcnn_res.entries:
            assert entry.object_id in pcnn_res.influencers

    def test_forall_leq_exists_per_object(self, synthetic):
        db = synthetic.db
        engine = QueryEngine(db, n_samples=500, seed=1)
        q = Query.from_state(db.space, synthetic.sample_query_state())
        times = synthetic.sample_query_times(6)
        probs = engine.nn_probabilities(q, times)
        for p_forall, p_exists in probs.values():
            assert p_forall <= p_exists + 1e-12

    def test_bounds_bracket_sampling_estimates(self, synthetic):
        db = synthetic.db
        engine = QueryEngine(db, n_samples=4000, seed=2)
        q = Query.from_state(db.space, synthetic.sample_query_state())
        times = synthetic.sample_query_times(5)
        pruning = engine.filter_objects(q, times)
        eps = 0.04  # generous sampling tolerance
        probs = engine.nn_probabilities(q, times)
        for oid in pruning.candidates:
            bounds = forall_nn_bounds(db, oid, q, times)
            assert probs[oid][0] >= bounds.lower - eps
            assert probs[oid][0] <= bounds.upper + eps

    def test_snapshot_exists_upper_bounds_sampling(self, synthetic):
        """1-Π(1-p_t) with exact per-tic marginals upper-bounds the true
        P∃NN when NN events are positively correlated across time — the
        systematic overestimation of Fig. 11 (checked in aggregate)."""
        db = synthetic.db
        engine = QueryEngine(db, n_samples=3000, seed=5)
        q = Query.from_state(db.space, synthetic.sample_query_state())
        times = synthetic.sample_query_times(5)
        sampled = engine.nn_probabilities(q, times)
        if not sampled:
            pytest.skip("query hit an empty region")
        snap = snapshot_probabilities(db, q, times, object_ids=list(sampled))
        mean_diff = np.mean(
            [snap[oid][1] - sampled[oid][1] for oid in sampled]
        )
        assert mean_diff >= -0.02

    def test_moving_query_over_ground_truth(self, synthetic):
        db = synthetic.db
        host = db.get(db.object_ids[0])
        segment = host.ground_truth.states[3:12]
        q = Query.from_trajectory(Trajectory(host.t_first + 3, segment), db.space)
        times = np.arange(host.t_first + 3, host.t_first + 12)
        engine = QueryEngine(db, n_samples=400, seed=6)
        res = engine.exists_nn(q, times, tau=0.5)
        # The host object itself shadows its own ground truth.
        assert host.object_id in res.object_ids()


class TestTaxiPipeline:
    def test_witness_search_end_to_end(self, taxi):
        db = taxi.db
        engine = QueryEngine(db, n_samples=400, seed=0)
        bank = Query.from_state(db.space, taxi.sample_query_state(downtown=True))
        window = taxi.sample_query_times(6)
        exists_res = engine.exists_nn(bank, window, tau=0.05)
        pcnn_res = engine.continuous_nn(bank, window, tau=0.3, maximal_only=True)
        # Probabilities must be proper and entries must respect tau.
        for r in exists_res.results:
            assert 0.05 <= r.probability <= 1.0
        for e in pcnn_res.entries:
            assert e.probability >= 0.3

    def test_hoeffding_driven_sampling(self, taxi):
        n = samples_needed(0.05, 0.05)
        engine = QueryEngine(taxi.db, n_samples=n, seed=1)
        q = Query.from_state(taxi.db.space, taxi.sample_query_state())
        times = taxi.sample_query_times(4)
        probs = engine.nn_probabilities(q, times)
        for p_forall, p_exists in probs.values():
            assert 0.0 <= p_forall <= p_exists <= 1.0


class TestFailureInjection:
    def test_contradicting_observations_surface_cleanly(self, synthetic):
        db = synthetic.db
        space_size = db.space.n_states
        # Fabricate an impossible jump: two far-apart states 1 tic apart.
        coords = db.space.coords
        a = 0
        b = int(np.argmax(np.sum((coords - coords[a]) ** 2, axis=1)))
        version = db.version
        with pytest.raises(ObservationContradictionError, match="object 'impossible'"):
            db.add_object("impossible", [(0, a), (1, b)])
        assert "impossible" not in db and db.version == version
        assert db.space.n_states == space_size

    def test_query_outside_all_spans(self, synthetic):
        engine = QueryEngine(synthetic.db, n_samples=50, seed=9)
        q = Query.from_point([0.5, 0.5])
        res = engine.forall_nn(q, [10_000])
        assert res.results == []
        assert res.n_influencers == 0
