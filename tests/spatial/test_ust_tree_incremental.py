"""Incremental UST-tree maintenance vs the rebuilt-from-scratch oracle.

``update_object`` patches the bound table in place; a freshly constructed
``USTTree`` over the same database and the per-entry reference filter
(``tests.oracles.prune_reference``) are the equivalence oracles: all must
count the same segments and answer ``prune()`` identically.
"""

import numpy as np
import pytest

from repro.spatial.ust_tree import USTTree
from tests.conftest import make_random_world
from tests.oracles import prune_reference, same_pruning, segment_items

pytestmark = pytest.mark.stream


def _assert_prune_equal(maintained, oracle, q_coords, times, k=1):
    assert len(maintained) == len(oracle) == len(segment_items(oracle.db))
    fresh = oracle.prune(q_coords, times, k=k)
    same_pruning(maintained.prune(q_coords, times, k=k), fresh)
    same_pruning(prune_reference(maintained.db, q_coords, times, k), fresh)


@pytest.fixture
def db():
    db, _ = make_random_world(seed=23, n_objects=8, span=10, obs_every=3)
    return db


@pytest.fixture
def query(db):
    times = np.arange(2, 8)
    q_coords = np.tile(np.array([5.0, 5.0]), (times.size, 1))
    return q_coords, times


class TestIncrementalMaintenance:
    def test_update_after_observation_matches_rebuild(self, db, query):
        tree = USTTree(db)
        for object_id in db.object_ids[:3]:
            obj = db.get(object_id)
            db.add_observation(
                object_id, obj.t_last + 1, int(obj.ground_truth.states[-1])
            )
            tree.update_object(object_id)
        oracle = USTTree(db)
        assert len(tree) == len(oracle)
        _assert_prune_equal(tree, oracle, *query)

    def test_insert_and_remove_match_rebuild(self, db, query):
        tree = USTTree(db)
        removed = db.object_ids[2]
        db.remove_object(removed)
        tree.update_object(removed)
        assert removed not in tree
        db.add_object("new", [(1, 0), (4, 0), (7, 0)])
        tree.update_object("new")
        assert "new" in tree
        oracle = USTTree(db)
        _assert_prune_equal(tree, oracle, *query)
        _assert_prune_equal(tree, oracle, *query, k=2)

    def test_churn_sequence_matches_rebuild(self, db, query):
        """A longer mixed mutation sequence stays in lockstep throughout."""
        tree = USTTree(db)
        rng = np.random.default_rng(4)
        ids = list(db.object_ids)
        for round_ in range(6):
            object_id = ids[round_ % len(ids)]
            if object_id not in db:
                continue
            if round_ % 3 == 2:
                db.remove_object(object_id)
            else:
                obj = db.get(object_id)
                db.add_observation(
                    object_id,
                    obj.t_last + 1 + int(rng.integers(2)),
                    int(obj.ground_truth.states[-1]),
                )
            tree.update_object(object_id)
            oracle = USTTree(db)
            _assert_prune_equal(tree, oracle, *query)

    def test_update_of_an_unknown_id_is_a_noop(self, db):
        tree = USTTree(db)
        n = len(tree)
        tree.update_object("ghost")
        assert len(tree) == n and "ghost" not in tree
