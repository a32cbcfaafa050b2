"""Example 1 / Figure 1 of the paper, reproduced end to end.

The scenario: two uncertain objects on four states with the query nearest
to s1.  Expected exact results (paper text):

* ``P∃NN(o2, q, D, {1,2,3}) = 0.25``
* ``P∀NN(o1, q, D, {1,2,3}) = 0.75``
* ``PCNNQ(q, D, {1,2,3}, 0.1)`` returns o1 with {1,2,3} and o2 with {2,3}.
"""

import json
from pathlib import Path

import pytest

from repro import Query, QueryEngine, QueryRequest
from repro.core.exact import (
    exact_forall_nn_over_times,
    exact_nn_probabilities,
    enumerate_consistent_trajectories,
)
from tests.conftest import make_paper_example_db

S1, S2, S3, S4 = 0, 1, 2, 3

GOLDEN_PATH = Path(__file__).parent / "data" / "paper_example_golden.json"
GOLDEN_SEED = 1337
GOLDEN_SAMPLES = 4000


@pytest.fixture
def example_db():
    return make_paper_example_db()


@pytest.fixture
def query():
    return Query.from_point([0.0, 0.0])


class TestPossibleWorlds:
    def test_o1_has_three_trajectories(self, example_db):
        obj = example_db.get("o1")
        paths = enumerate_consistent_trajectories(
            obj.chain, obj.observations.as_pairs(), extend_to=3
        )
        got = {p.states: p.probability for p in paths}
        assert got == {
            (S2, S1, S1): pytest.approx(0.5),
            (S2, S3, S1): pytest.approx(0.25),
            (S2, S3, S3): pytest.approx(0.25),
        }

    def test_o2_has_two_trajectories(self, example_db):
        obj = example_db.get("o2")
        paths = enumerate_consistent_trajectories(
            obj.chain, obj.observations.as_pairs(), extend_to=3
        )
        got = {p.states: p.probability for p in paths}
        assert got == {
            (S3, S2, S2): pytest.approx(0.5),
            (S3, S4, S4): pytest.approx(0.5),
        }


class TestExactProbabilities:
    def test_paper_values(self, example_db, query):
        probs = exact_nn_probabilities(example_db, query, [1, 2, 3])
        assert probs["o1"][0] == pytest.approx(0.75)  # P∀NN(o1)
        assert probs["o2"][1] == pytest.approx(0.25)  # P∃NN(o2)
        # Complementary views implied by two-object worlds:
        assert probs["o1"][1] == pytest.approx(1.0)  # o1 NN at t=1 always
        assert probs["o2"][0] == pytest.approx(0.0)

    def test_pcnn_intervals(self, example_db, query):
        tables = exact_forall_nn_over_times(example_db, query, [1, 2, 3])
        # o1 qualifies on the full interval at tau=0.1.
        assert tables["o1"][(1, 2, 3)] == pytest.approx(0.75)
        # o2 qualifies on {2, 3}: requires tr2,1 and o1 staying on s3-branch.
        assert tables["o2"][(2, 3)] == pytest.approx(0.125)
        assert tables["o2"][(2,)] == pytest.approx(0.25)


class TestSamplingEngine:
    def test_sampled_probabilities_converge(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=30_000, seed=7)
        estimates = engine.nn_probabilities(query, [1, 2, 3])
        assert estimates["o1"][0] == pytest.approx(0.75, abs=0.01)
        assert estimates["o2"][1] == pytest.approx(0.25, abs=0.01)

    def test_pcnn_query_returns_paper_result(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=30_000, seed=11)
        result = engine.continuous_nn(query, [1, 2, 3], tau=0.1, maximal_only=True)
        got = {(e.object_id, e.times) for e in result.entries}
        assert ("o1", (1, 2, 3)) in got
        assert ("o2", (2, 3)) in got

    def test_threshold_query(self, example_db, query):
        engine = QueryEngine(example_db, n_samples=20_000, seed=3)
        result = engine.exists_nn(query, [1, 2, 3], tau=0.2)
        ids = result.object_ids()
        assert "o1" in ids and "o2" in ids
        result_strict = engine.exists_nn(query, [1, 2, 3], tau=0.5)
        assert result_strict.object_ids() == ["o1"]


def _golden_payload(example_db, query):
    """Seeded QueryResult probabilities for all three semantics, one epoch."""
    engine = QueryEngine(example_db, n_samples=GOLDEN_SAMPLES, seed=GOLDEN_SEED)
    out = engine.evaluate_many(
        [
            QueryRequest(query, (1, 2, 3), "forall"),
            QueryRequest(query, (1, 2, 3), "exists"),
            QueryRequest(query, (1, 2, 3), "pcnn", 0.1),
        ]
    )
    return {
        "seed": GOLDEN_SEED,
        "n_samples": GOLDEN_SAMPLES,
        "forall": out[0].probabilities,
        "exists": out[1].probabilities,
        "pcnn": [
            [e.object_id, list(e.times), e.probability] for e in out[2].entries
        ],
    }


class TestGoldenFile:
    """Frozen seeded results for the running example.

    Guards against silent drift of the sampling pipeline (RNG consumption,
    backend changes, cache semantics) across PRs: any change that alters
    what a fixed seed produces must consciously regenerate the golden file
    with ``pytest --regen-golden``.  Exact float equality is intentional —
    the JSON round-trip preserves float64 bit patterns.
    """

    def test_seeded_results_match_golden(self, example_db, query, request):
        payload = _golden_payload(example_db, query)
        if request.config.getoption("--regen-golden"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH.name}")
        assert GOLDEN_PATH.exists(), (
            "golden file missing — run `pytest --regen-golden` once"
        )
        golden = json.loads(GOLDEN_PATH.read_text())
        assert payload == golden

    def test_golden_file_matches_exact_oracle_within_hoeffding(self, example_db):
        """The frozen estimates must stay near ground truth, not just frozen:
        a regeneration that silently broke the sampler would be caught here."""
        from repro.analysis.hoeffding import confidence_radius

        golden = json.loads(GOLDEN_PATH.read_text())
        eps = confidence_radius(golden["n_samples"], 1e-7)
        assert golden["forall"]["o1"] == pytest.approx(0.75, abs=eps)
        assert golden["exists"]["o2"] == pytest.approx(0.25, abs=eps)


GOLDEN_K2_PATH = Path(__file__).parent / "data" / "paper_example_k2_golden.json"


def _golden_k2_payload(example_db, query):
    """Seeded k=2 results for the running example, one epoch.

    With two objects, k=2 makes every alive object a 2NN member, so the
    forward probabilities are degenerate aliveness checks — the reverse
    direction (k=1) is the discriminating part of this golden.
    """
    engine = QueryEngine(example_db, n_samples=GOLDEN_SAMPLES, seed=GOLDEN_SEED)
    out = engine.evaluate_many(
        [
            QueryRequest(query, (1, 2, 3), "raw", k=2),
            QueryRequest(query, (1, 2, 3), "reverse_nn", k=1),
        ]
    )
    return {
        "seed": GOLDEN_SEED,
        "n_samples": GOLDEN_SAMPLES,
        "k": 2,
        "forall": out[0].forall,
        "exists": out[0].exists,
        "reverse_forall": out[1].probabilities,
        "reverse_exists": out[1].exists,
    }


class TestGoldenFileK2:
    """Frozen seeded k=2 + reverse results for the running example — the
    depth/reverse analogue of :class:`TestGoldenFile`, same regeneration
    workflow (``pytest --regen-golden``), same exact-equality contract."""

    def test_seeded_k2_results_match_golden(self, example_db, query, request):
        payload = _golden_k2_payload(example_db, query)
        if request.config.getoption("--regen-golden"):
            GOLDEN_K2_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_K2_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {GOLDEN_K2_PATH.name}")
        assert GOLDEN_K2_PATH.exists(), (
            "golden file missing — run `pytest --regen-golden` once"
        )
        golden = json.loads(GOLDEN_K2_PATH.read_text())
        assert payload == golden

    def test_k2_golden_matches_exact_oracle_within_hoeffding(self, example_db, query):
        from repro.analysis.hoeffding import confidence_radius
        from repro.core.exact import exact_reverse_nn_probabilities

        golden = json.loads(GOLDEN_K2_PATH.read_text())
        eps = confidence_radius(golden["n_samples"], 1e-7)
        exact = exact_nn_probabilities(example_db, query, (1, 2, 3), k=2)
        for oid, (p_forall, p_exists) in exact.items():
            assert golden["forall"][oid] == pytest.approx(p_forall, abs=eps)
            assert golden["exists"][oid] == pytest.approx(p_exists, abs=eps)
        reverse = exact_reverse_nn_probabilities(example_db, query, (1, 2, 3), k=1)
        for oid, (p_forall, p_exists) in reverse.items():
            assert golden["reverse_forall"][oid] == pytest.approx(p_forall, abs=eps)
            assert golden["reverse_exists"][oid] == pytest.approx(p_exists, abs=eps)
