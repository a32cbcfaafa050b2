"""UST-tree behaviour with extension cones and degenerate objects."""

import numpy as np
import pytest

from repro.core.exact import exact_nn_probabilities
from repro.core.queries import Query
from repro.spatial.ust_tree import USTTree
from tests.oracles import segment_items
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain, make_line_space


@pytest.fixture
def db_with_extension():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    # Object pinned once, extended forward (Example 1 style).
    db.add_object("cone", [(0, 0)], extend_to=3)
    # Regular two-observation object.
    db.add_object("seg", [(0, 1), (3, 3)])
    return db


class TestExtensionCones:
    def test_cone_segment_indexed(self, db_with_extension):
        tree = USTTree(db_with_extension)
        assert len(tree) == 2
        spans = {
            (key.t_start, key.t_end) for _, key in segment_items(db_with_extension)
        }
        assert (0, 3) in spans

    def test_cone_object_prunable(self, db_with_extension):
        tree = USTTree(db_with_extension)
        times = np.arange(0, 4)
        q = Query.from_point([0.0, 0.0])
        result = tree.prune(q.coords_at(times), times)
        # Both objects cover all of T, so both can be candidates.
        assert "cone" in result.influencers
        exact = exact_nn_probabilities(db_with_extension, q, times)
        for oid, (p_forall, _) in exact.items():
            if p_forall > 1e-12:
                assert oid in result.candidates

    def test_single_observation_object(self):
        db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
        db.add_object("pin", [(5, 2)])
        tree = USTTree(db)
        assert len(tree) == 1
        times = np.array([5])
        q = Query.from_point([2.0, 0.0])
        result = tree.prune(q.coords_at(times), times)
        assert result.candidates == ["pin"]
        # The degenerate MBR is the exact point: dmin == dmax == 0.
        assert result.dmin_bounds["pin"][0] == pytest.approx(0.0)
        assert result.dmax_bounds["pin"][0] == pytest.approx(0.0)


class TestObservationTics:
    def test_bounds_collapse_at_observations(self, drift_db):
        """At observation tics both segments cover t; the merged bounds
        pin the object to its observed position."""
        drift_db.add_object("c", [(0, 0), (2, 1), (4, 2)])
        tree = USTTree(drift_db)
        times = np.array([2])
        obs_coord = drift_db.space.coords[1]
        q = Query.from_point(obs_coord)
        result = tree.prune(q.coords_at(times), times)
        assert result.dmin_bounds["c"][0] == pytest.approx(0.0, abs=1e-12)
        assert result.dmax_bounds["c"][0] == pytest.approx(0.0, abs=1e-12)
