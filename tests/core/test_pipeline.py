"""Tests for the staged evaluate() pipeline, its estimators and reports.

Four contracts of the API redesign:

* the classic entry points are *bit-identical* shims over ``evaluate()``;
* ``explain()`` is a pure observability hook (golden-filed on the paper
  running example; consumes no randomness);
* the hybrid estimator agrees with pure sampling on the
  statistical-validation topologies while sampling fewer objects;
* every result's :class:`EvaluationReport` accounting matches the world
  cache's own counters.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.hoeffding import confidence_radius, samples_needed
from repro.core.estimators import ESTIMATORS
from repro.core.evaluator import QueryEngine
from repro.core.exact import exact_nn_probabilities
from repro.core.planner import build_plan
from repro.core.queries import ESTIMATOR_NAMES, Query, QueryRequest
from repro.core.results import PCNNResult, QueryResult, RawProbabilities
from tests.conftest import make_paper_example_db, make_random_world
from tests.oracles.shapes import TOPOLOGIES

EXPLAIN_GOLDEN_PATH = (
    Path(__file__).parent.parent / "data" / "explain_golden.json"
)

N_SAMPLES = 4_000
#: Two-sided Hoeffding radius for the agreement assertions below.
EPS = confidence_radius(N_SAMPLES, 1e-7)


@pytest.fixture
def example_db():
    return make_paper_example_db()


@pytest.fixture
def query():
    return Query.from_point([0.0, 0.0])


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_registry_matches_request_names(self):
        assert set(ESTIMATORS) == set(ESTIMATOR_NAMES)

    def test_default_plan(self, query):
        plan = build_plan(QueryRequest(query, (3, 1, 2)), 500)
        assert plan.resolved_estimator == "sampled"
        assert plan.n_samples == 500
        assert plan.times == (1, 2, 3)  # normalized
        assert plan.window == (1, 3)
        assert plan.stages == ("plan", "filter", "estimate[sampled]", "threshold")
        assert plan.epsilon is None and plan.delta is None

    def test_adaptive_plan_sizes_from_precision(self, query):
        req = QueryRequest(
            query, (1, 2), estimator="adaptive", precision=(0.02, 1e-3)
        )
        plan = build_plan(req, 500)
        assert plan.n_samples == samples_needed(0.02, 1e-3)
        assert plan.epsilon == pytest.approx(
            confidence_radius(plan.n_samples, 1e-3)
        )
        assert plan.epsilon <= 0.02

    def test_adaptive_keeps_larger_override(self, query):
        req = QueryRequest(
            query,
            (1, 2),
            estimator="adaptive",
            precision=(0.1, 0.1),
            n_samples=100_000,
        )
        plan = build_plan(req, 500)
        assert plan.n_samples == 100_000
        assert plan.notes

    def test_adaptive_notes_discarded_smaller_override(self, query):
        req = QueryRequest(
            query,
            (1, 2),
            estimator="adaptive",
            precision=(0.1, 0.1),
            n_samples=50,
        )
        plan = build_plan(req, 500)
        assert plan.n_samples == samples_needed(0.1, 0.1)
        assert any("below the Hoeffding requirement" in n for n in plan.notes)

    def test_adaptive_exact_match_override_no_note(self, query):
        n_needed = samples_needed(0.1, 0.1)
        req = QueryRequest(
            query,
            (1, 2),
            estimator="adaptive",
            precision=(0.1, 0.1),
            n_samples=n_needed,
        )
        plan = build_plan(req, 500)
        assert plan.n_samples == n_needed
        assert plan.notes == ()

    def test_hybrid_tau_zero_warns(self, query):
        plan = build_plan(
            QueryRequest(query, (1, 2), "forall", estimator="hybrid"), 500
        )
        assert any("tau=0" in n for n in plan.notes)

    def test_exact_pcnn_tau_zero_fails_at_plan_time(self, query):
        with pytest.raises(ValueError, match="tau must be in"):
            build_plan(
                QueryRequest(query, (1, 2), "pcnn", estimator="exact"), 500
            )

    def test_precision_on_fixed_sampling_reports_radius(self, query):
        req = QueryRequest(query, (1, 2), precision=(0.001, 1e-3))
        plan = build_plan(req, 500)
        assert plan.epsilon == pytest.approx(confidence_radius(500, 1e-3))
        assert any("adaptive" in note for note in plan.notes)

    def test_bounds_rejects_unsupported_semantics(self, query):
        with pytest.raises(ValueError, match="bounds"):
            build_plan(
                QueryRequest(query, (1, 2), "exists", estimator="bounds"), 500
            )
        with pytest.raises(ValueError, match="bounds"):
            build_plan(
                QueryRequest(query, (1, 2), "forall", k=2, estimator="bounds"),
                500,
            )

    def test_hybrid_falls_back_with_note(self, query):
        plan = build_plan(
            QueryRequest(query, (1, 2), "exists", estimator="hybrid"), 500
        )
        assert plan.estimator == "hybrid"
        assert plan.resolved_estimator == "sampled"
        assert any("falls back" in note for note in plan.notes)

    def test_non_sampling_plans_have_zero_budget(self, query):
        plan = build_plan(
            QueryRequest(query, (1, 2), estimator="exact"), 500
        )
        assert plan.n_samples == 0

    def test_exact_with_precision_reports_zero_radius(self, query):
        # Exact answers carry no estimation error: the plan must not
        # project a Hoeffding radius from the unused sampling default.
        plan = build_plan(
            QueryRequest(
                query, (1, 2), estimator="exact", precision=(0.01, 1e-3)
            ),
            500,
        )
        assert plan.epsilon == 0.0
        assert plan.notes == ()

    def test_bounds_with_precision_reports_no_radius(self, query):
        plan = build_plan(
            QueryRequest(
                query,
                (1, 2),
                "forall",
                0.5,
                estimator="bounds",
                precision=(0.01, 1e-3),
                n_samples=5000,
            ),
            500,
        )
        assert plan.epsilon is None
        assert plan.n_samples == 0
        # Dropped caller settings are surfaced, never silently discarded.
        assert any("n_samples=5000 override is ignored" in n for n in plan.notes)
        assert any("precision target is ignored" in n for n in plan.notes)


# ----------------------------------------------------------------------
# explain(): golden plan + purity
# ----------------------------------------------------------------------
def _explain_payload(example_db, query):
    engine = QueryEngine(example_db, n_samples=4000, seed=1337)
    hybrid = engine.explain(
        QueryRequest(query, (1, 2, 3), "forall", 0.5, estimator="hybrid")
    )
    adaptive = engine.explain(
        QueryRequest(
            query,
            (1, 2, 3),
            "exists",
            0.1,
            estimator="adaptive",
            precision=(0.025, 1e-3),
        )
    )
    return {"hybrid_forall": hybrid.as_dict(), "adaptive_exists": adaptive.as_dict()}


class TestExplain:
    def test_golden_plan_on_paper_example(self, example_db, query, request):
        payload = _explain_payload(example_db, query)
        if request.config.getoption("--regen-golden"):
            EXPLAIN_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            EXPLAIN_GOLDEN_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {EXPLAIN_GOLDEN_PATH.name}")
        assert EXPLAIN_GOLDEN_PATH.exists(), (
            "golden file missing — run `pytest --regen-golden` once"
        )
        golden = json.loads(EXPLAIN_GOLDEN_PATH.read_text())
        assert payload == golden

    def test_explain_consumes_no_randomness(self, example_db, query):
        plain = QueryEngine(example_db, n_samples=2000, seed=7)
        explained = QueryEngine(example_db, n_samples=2000, seed=7)
        for _ in range(3):
            explained.explain(QueryRequest(query, (1, 2, 3), "forall", 0.5))
        a = plain.forall_nn(query, [1, 2, 3], tau=0.1)
        b = explained.forall_nn(query, [1, 2, 3], tau=0.1)
        assert a.probabilities == b.probabilities
        assert explained.draw_epoch == plain.draw_epoch

    def test_report_skeleton(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=2000, seed=7)
        ex = engine.explain(QueryRequest(query, (1, 2, 3), "forall", 0.5))
        assert ex.report.executed is False
        assert ex.report.total_seconds == 0.0
        assert ex.report.n_candidates == len(ex.candidates)
        assert ex.report.n_influencers == len(ex.influencers)
        assert ex.report.estimator_by_object == {}
        assert "strategy=sampled" in ex.summary()


# ----------------------------------------------------------------------
# shims are bit-identical to evaluate()
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 7, 1337])
class TestShimBitIdentity:
    def _engines(self, seed):
        db_a, _ = make_random_world(seed=5, n_objects=3, span=5, obs_every=2)
        db_b, _ = make_random_world(seed=5, n_objects=3, span=5, obs_every=2)
        return (
            QueryEngine(db_a, n_samples=600, seed=seed),
            QueryEngine(db_b, n_samples=600, seed=seed),
        )

    def test_forall_and_exists(self, seed):
        legacy, staged = self._engines(seed)
        q = Query.from_point([5.0, 5.0])
        for mode, method in (("forall", "forall_nn"), ("exists", "exists_nn")):
            a = getattr(legacy, method)(q, [1, 2, 3], tau=0.1)
            b = staged.evaluate(QueryRequest(q, (1, 2, 3), mode, 0.1))
            assert a.probabilities == b.probabilities  # exact float equality
            assert [r.object_id for r in a.results] == [
                r.object_id for r in b.results
            ]
            assert a.n_samples == b.n_samples

    def test_pcnn(self, seed):
        legacy, staged = self._engines(seed)
        q = Query.from_point([5.0, 5.0])
        a = legacy.continuous_nn(q, [1, 2, 3], tau=0.2, maximal_only=True)
        b = staged.evaluate(
            QueryRequest(q, (1, 2, 3), "pcnn", 0.2, maximal_only=True)
        )
        assert [(e.object_id, e.times, e.probability) for e in a.entries] == [
            (e.object_id, e.times, e.probability) for e in b.entries
        ]
        assert a.sets_evaluated == b.sets_evaluated

    def test_raw(self, seed):
        legacy, staged = self._engines(seed)
        q = Query.from_point([5.0, 5.0])
        a = legacy.nn_probabilities(q, [1, 2, 3])
        b = staged.evaluate(QueryRequest(q, (1, 2, 3), "raw"))
        assert isinstance(b, RawProbabilities)
        assert a == b.as_dict()


# ----------------------------------------------------------------------
# estimator behavior
# ----------------------------------------------------------------------
class TestEstimators:
    def test_exact_estimator_matches_oracle(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=10, seed=3)
        oracle = exact_nn_probabilities(example_db, query, [1, 2, 3])
        r = engine.evaluate(
            QueryRequest(query, (1, 2, 3), "raw", estimator="exact")
        )
        for oid, (p_forall, p_exists) in r.as_dict().items():
            assert p_forall == pytest.approx(oracle[oid][0], abs=1e-12)
            assert p_exists == pytest.approx(oracle[oid][1], abs=1e-12)
        assert r.report.sampled_objects == 0
        assert r.report.n_samples == 0

    def test_bounds_estimator_decides_paper_example(self, example_db, query):
        # Two-object database: the Lemma 2 bounds are tight, so the paper's
        # exact P∀NN(o1) = 0.75 is certified without sampling.
        engine = QueryEngine(example_db, n_samples=10, seed=3)
        r = engine.evaluate(
            QueryRequest(query, (1, 2, 3), "forall", 0.5, estimator="bounds")
        )
        assert [x.object_id for x in r.results] == ["o1"]
        assert r.probabilities["o1"] == pytest.approx(0.75)
        assert r.report.estimator_by_object["o1"] == "bounds:accepted"
        assert r.report.sampled_objects == 0
        assert r.report.undecided == ()

    def test_exact_budgets_plumbed_from_request(self, example_db, query):
        from repro.core.exact import WorldBudgetExceeded

        engine = QueryEngine(example_db, n_samples=10, seed=3)
        with pytest.raises(WorldBudgetExceeded):
            engine.evaluate(
                QueryRequest(
                    query, (1, 2, 3), "raw", estimator="exact", max_worlds=1
                )
            )

    def test_bounds_undecided_reported(self):
        db, _ = make_random_world(seed=21, n_objects=3, span=4, obs_every=2)
        engine = QueryEngine(db, n_samples=10, seed=3)
        q = Query.from_point([5.0, 5.0])
        r = engine.evaluate(
            QueryRequest(q, (1, 2, 3), "forall", 0.5, estimator="bounds")
        )
        # Undecided candidates carry no probability but are reported.
        for oid in r.report.undecided:
            assert oid not in r.probabilities
        decided = set(r.report.estimator_by_object)
        assert decided | set(r.report.undecided) == set(r.candidates)

    def test_hybrid_skips_sampling_when_bounds_decide(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=4000, seed=3)
        r = engine.evaluate(
            QueryRequest(
                query,
                (1, 2, 3),
                "forall",
                0.5,
                estimator="hybrid",
                precision=(0.05, 1e-3),
            )
        )
        assert r.report.sampled_objects == 0
        assert r.report.cache_misses == 0
        assert engine.sampler_calls == 0
        assert [x.object_id for x in r.results] == ["o1"]
        # No draw happened: the planned Hoeffding radius must not be
        # reported against values that are certified bounds.
        assert r.report.n_samples == 0
        assert r.report.epsilon is None

    def test_adaptive_draws_hoeffding_count(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=10, seed=3)
        r = engine.evaluate(
            QueryRequest(
                query,
                (1, 2, 3),
                "forall",
                0.1,
                estimator="adaptive",
                precision=(0.05, 0.01),
            )
        )
        expected = samples_needed(0.05, 0.01)
        assert r.n_samples == expected
        assert r.report.n_samples == expected
        assert abs(r.probabilities["o1"] - 0.75) <= 0.05


# ----------------------------------------------------------------------
# hybrid vs pure sampling on the statistical-validation topologies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", [0.1, 0.4, 0.8])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestHybridAgreement:
    def test_hybrid_agrees_with_sampled(self, topology, tau):
        build_db, build_q, times = TOPOLOGIES[topology]
        q = build_q()
        sampled_engine = QueryEngine(build_db(), n_samples=N_SAMPLES, seed=11)
        hybrid_engine = QueryEngine(build_db(), n_samples=N_SAMPLES, seed=11)
        sampled = sampled_engine.evaluate(
            QueryRequest(q, times, "forall", tau, estimator="sampled")
        )
        hybrid = hybrid_engine.evaluate(
            QueryRequest(q, times, "forall", tau, estimator="hybrid")
        )
        assert hybrid.report.sampled_objects <= sampled.report.sampled_objects
        for oid, tag in hybrid.report.estimator_by_object.items():
            p_hat = sampled.probabilities[oid]
            if tag == "sampled":
                # Same seed + same epoch -> identical worlds, bit-identical.
                assert hybrid.probabilities[oid] == p_hat
            elif tag == "bounds:accepted":
                # Certified >= tau; the MC estimate must agree within the
                # Hoeffding radius of the certified lower bound.
                assert hybrid.probabilities[oid] >= tau
                assert p_hat >= hybrid.probabilities[oid] - EPS
            else:  # bounds:rejected — certified < tau
                assert tag == "bounds:rejected"
                assert hybrid.probabilities[oid] < tau
                assert p_hat <= hybrid.probabilities[oid] + EPS


# ----------------------------------------------------------------------
# EvaluationReport accounting
# ----------------------------------------------------------------------
class TestReportAccounting:
    def test_cache_deltas_match_world_cache_counters(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=500, seed=5, reuse_worlds=True)
        req = QueryRequest(query, (1, 2, 3), "forall", 0.1)
        before = (engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value)
        first = engine.evaluate(req)
        mid = (engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value)
        assert first.report.cache_hits == mid[0] - before[0]
        assert first.report.cache_partial_hits == mid[1] - before[1]
        assert first.report.cache_misses == mid[2] - before[2]
        assert first.report.cache_misses == 2  # both objects drawn fresh
        second = engine.evaluate(req)
        after = (engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value)
        assert second.report.cache_hits == after[0] - mid[0] == 2
        assert second.report.cache_misses == 0

    def test_batch_reports_sum_to_cache_counters(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=500, seed=5)
        before = (engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value)
        out = engine.evaluate_many(
            [
                QueryRequest(query, (1, 2), "forall"),
                QueryRequest(query, (2, 3), "exists"),
                QueryRequest(query, (1, 2, 3), "pcnn", 0.1),
            ]
        )
        after = (engine.worlds.hits.value, engine.worlds.partial_hits.value, engine.worlds.misses.value)
        assert sum(r.report.cache_hits for r in out) == after[0] - before[0]
        assert sum(r.report.cache_partial_hits for r in out) == after[1] - before[1]
        assert sum(r.report.cache_misses for r in out) == after[2] - before[2]

    def test_stage_timings_and_counts(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=500, seed=5)
        r = engine.evaluate(QueryRequest(query, (1, 2, 3), "forall", 0.1))
        assert set(r.report.stage_seconds) == {
            "plan", "filter", "estimate", "threshold"
        }
        assert all(t >= 0.0 for t in r.report.stage_seconds.values())
        assert r.report.total_seconds > 0.0
        assert r.report.n_candidates == len(r.candidates)
        assert r.report.n_influencers == len(r.influencers)
        assert r.report.sampled_objects == len(r.influencers)
        assert r.report.executed is True
        assert r.report.as_dict()["mode"] == "forall"

    def test_every_result_type_carries_report(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=200, seed=5)
        out = engine.evaluate_many(
            [
                QueryRequest(query, (1, 2, 3), "forall"),
                QueryRequest(query, (1, 2, 3), "pcnn", 0.2),
                QueryRequest(query, (1, 2, 3), "raw"),
            ]
        )
        assert isinstance(out[0], QueryResult)
        assert isinstance(out[1], PCNNResult)
        assert isinstance(out[2], RawProbabilities)
        for r in out:
            assert r.report is not None and r.report.executed
