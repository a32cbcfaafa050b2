"""Tests for live observation ingestion and index staleness detection."""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain, make_line_space
from tests.oracles.shapes import BACKENDS


@pytest.fixture
def db():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    return db


class TestAddObservation:
    def test_observation_added_and_model_refreshed(self, db):
        before = db.get("a")
        _ = before.adapted
        after = db.add_observation("a", 2, 1)
        assert db.get("a") is after
        assert after.observations.state_at(2) == 1
        # The new model must collapse at the new observation.
        assert after.adapted.posterior(2).probability_of(1) == 1.0

    def test_duplicate_time_rejected(self, db):
        with pytest.raises(ValueError):
            db.add_observation("a", 4, 2)

    def test_contradicting_observation_detected_lazily(self, db):
        obj = db.add_observation("a", 1, 3)  # state 3 unreachable at t=1
        with pytest.raises(Exception):
            obj.adapted

    def test_extends_span_forward(self, db):
        obj = db.add_observation("a", 6, 3)
        assert obj.t_last == 6
        assert len(db.diamonds_of("a")) == 2

    def test_supersedes_extension(self):
        db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
        db.add_object("e", [(0, 0)], extend_to=4)
        obj = db.add_observation("e", 6, 3)
        assert obj.extend_to is None
        assert obj.t_last == 6

    def test_version_increments(self, db):
        v0 = db.version
        db.add_observation("a", 2, 1)
        assert db.version == v0 + 1
        db.add_object("b", [(0, 1)])
        assert db.version == v0 + 2
        db.remove_object("b")
        assert db.version == v0 + 3

    def test_ground_truth_preserved(self):
        from repro.trajectory.trajectory import Trajectory

        db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
        truth = Trajectory(0, np.array([0, 1, 1, 2, 2]))
        db.add_object("g", truth.observe_every(4), ground_truth=truth)
        obj = db.add_observation("g", 2, 1)
        assert obj.ground_truth is truth


class TestRemoveObject:
    def test_unknown_id_raises_descriptive_keyerror(self, db):
        with pytest.raises(KeyError, match="unknown object 'ghost'"):
            db.remove_object("ghost")

    def test_failed_removal_leaves_version_untouched(self, db):
        v = db.version
        with pytest.raises(KeyError):
            db.remove_object("ghost")
        assert db.version == v
        assert db.changed_since(v) == set()

    def test_successful_removal(self, db):
        v = db.version
        db.remove_object("a")
        assert "a" not in db and db.version == v + 1
        assert db.changed_since(v) == {"a"}


class TestEngineStalenessDetection:
    def test_index_updated_in_place_after_mutation(self, db):
        """The engine re-indexes only the touched object instead of
        rebuilding the tree."""
        engine = QueryEngine(db, n_samples=50, seed=0)
        tree_before = engine.ust_tree
        rebuilds = engine.index_rebuilds.value
        db.add_object("b", [(0, 1), (4, 3)])
        tree_after = engine.ust_tree
        assert tree_after is tree_before  # maintained, not rebuilt
        assert engine.index_rebuilds.value == rebuilds
        assert engine.index_updates.value == 1
        assert "b" in tree_after and len(tree_after) == 2

    def test_index_rebuilds_after_mutation_past_the_mutation_log(self, db):
        """A delta the mutation log cannot name keeps the classic wholesale
        rebuild."""
        db.MUTATION_LOG_LIMIT = 0
        engine = QueryEngine(db, n_samples=50, seed=0)
        tree_before = engine.ust_tree
        db.add_object("b", [(0, 1), (4, 3)])
        tree_after = engine.ust_tree
        assert tree_after is not tree_before
        assert len(tree_after) == 2
        assert engine.index_rebuilds.value == 2 and engine.index_updates.value == 0

    def test_new_observation_affects_results(self, db):
        db.add_object("b", [(0, 1), (4, 3)])
        engine = QueryEngine(db, n_samples=4000, seed=1)
        q = Query.from_point([0.0, 0.0])
        before = engine.nn_probabilities(q, [2])
        # Pin b at state 1 at t=2: closer to q than its previous spread.
        db.add_observation("b", 2, 1)
        after = engine.nn_probabilities(q, [2])
        assert after["b"][0] >= before["b"][0] - 0.02

    def test_unchanged_db_keeps_index(self, db):
        engine = QueryEngine(db, n_samples=50, seed=0)
        t1 = engine.ust_tree
        t2 = engine.ust_tree
        assert t1 is t2


@pytest.mark.parametrize("backend", BACKENDS)
class TestMutationUnderQueryLockstep:
    """query → mutate → query: selective invalidation must answer exactly
    like an engine that rebuilds everything per mutation — the twin whose
    database keeps no mutation log (``MUTATION_LOG_LIMIT = 0``), so every
    sync of its engine is the wholesale fallback."""

    @staticmethod
    def _twin_dbs():
        def build():
            db = TrajectoryDatabase(make_line_space(6), make_drift_chain(6))
            db.add_object("a", [(0, 0), (4, 2)])
            db.add_object("b", [(0, 1), (4, 3)])
            db.add_object("c", [(1, 2), (5, 4)])
            return db

        logged, logless = build(), build()
        logless.MUTATION_LOG_LIMIT = 0
        return logged, logless

    @staticmethod
    def _mutate(db):
        db.add_observation("a", 2, 1)
        db.add_object("d", [(0, 3), (4, 5)])
        db.remove_object("b")

    def test_standalone_queries_bit_identical(self, backend):
        db_inc, db_full = self._twin_dbs()
        inc = QueryEngine(db_inc, n_samples=300, seed=5, backend=backend)
        full = QueryEngine(db_full, n_samples=300, seed=5, backend=backend)
        q = Query.from_point([0.0, 0.0])
        for mode in ("forall", "exists"):
            r1 = getattr(inc, f"{mode}_nn")(q, [1, 2, 3])
            r2 = getattr(full, f"{mode}_nn")(q, [1, 2, 3])
            assert r1.probabilities == r2.probabilities
        self._mutate(db_inc)
        self._mutate(db_full)
        for mode in ("forall", "exists"):
            r1 = getattr(inc, f"{mode}_nn")(q, [1, 2, 3])
            r2 = getattr(full, f"{mode}_nn")(q, [1, 2, 3])
            assert r1.probabilities == r2.probabilities
            assert r1.candidates == r2.candidates
            assert r1.influencers == r2.influencers

    def test_held_worlds_bit_identical(self, backend):
        """reuse_worlds engines: the logged one keeps unchanged
        objects' cached worlds across the mutation, the log-less one
        redraws everything — results must still agree bit for bit."""
        db_inc, db_full = self._twin_dbs()
        inc = QueryEngine(
            db_inc, n_samples=300, seed=6, backend=backend, reuse_worlds=True
        )
        full = QueryEngine(
            db_full, n_samples=300, seed=6, backend=backend, reuse_worlds=True
        )
        q = Query.from_point([0.0, 0.0])
        r1 = inc.forall_nn(q, [1, 2, 3])
        assert r1.probabilities == full.forall_nn(q, [1, 2, 3]).probabilities
        self._mutate(db_inc)
        self._mutate(db_full)
        r_inc = inc.forall_nn(q, [1, 2, 3])
        r_full = full.forall_nn(q, [1, 2, 3])
        assert r_inc.probabilities == r_full.probabilities
        # The interesting part: they agreed while doing different work.
        assert inc.worlds.misses.value < full.worlds.misses.value
        assert inc.worlds_invalidated.value >= 2  # "a" dropped, "b" dropped
        assert full.worlds_invalidated.value == 0  # wholesale: token flush instead
        assert full.worlds_token == 1 and inc.worlds_token == 0
        # Removed ids free their per-object RNG tags (forever-stream churn
        # must not leak per-id state); live ids keep theirs.
        assert "b" not in inc._rng_tags and "a" in inc._rng_tags


@pytest.mark.parametrize("backend", BACKENDS)
def test_small_dirty_redraw_builds_no_step_table(backend):
    """A tick-shaped redraw (1 dirty object, everyone else cached) builds
    no fused step table: the C sweep reads the object's own model, and
    the numpy sweep draws a request this small per object."""
    db = TrajectoryDatabase(make_line_space(8), make_drift_chain(8))
    for i in range(6):  # enough objects that the numpy prime fuses
        db.add_object(f"o{i}", [(0, i), (4, i + 2)])
    engine = QueryEngine(
        db, n_samples=100, seed=7, reuse_worlds=True, use_pruning=False, backend=backend
    )
    q = Query.from_point([0.0, 0.0])
    engine.forall_nn(q, [1, 2, 3])  # primes cache + arena
    builds = engine.metrics.value("arena_table_builds_total")
    assert (builds == 0) == (backend == "native")
    db.add_observation("o0", 2, 1)
    engine.forall_nn(q, [1, 2, 3])  # 1 miss
    assert engine.metrics.value("arena_table_builds_total") == builds
    assert engine._arena.block("o0").model is db.get("o0").compiled  # the new model
