"""Tests for certain-trajectory NN algorithms (the per-world substrate)."""

import numpy as np
import pytest

from repro.statespace.base import StateSpace
from repro.trajectory.certain_nn import (
    CNNInterval,
    continuous_nn_intervals,
    distance_profile,
    exists_nn_objects,
    forall_nn_objects,
    nn_at_each_time,
)
from repro.trajectory.trajectory import Trajectory


@pytest.fixture
def space():
    # States on a line at x = 0..5.
    return StateSpace(np.stack([np.arange(6.0), np.zeros(6)], axis=1))


@pytest.fixture
def world(space):
    """Two crossing trajectories: a moves right, b moves left."""
    return {
        "a": Trajectory(0, np.array([0, 1, 2, 3, 4])),
        "b": Trajectory(0, np.array([4, 3, 2, 1, 0])),
    }


def q_at_origin(times):
    return np.tile(np.array([0.0, 0.0]), (len(times), 1))


class TestDistanceProfile:
    def test_values(self, world, space):
        times = np.arange(5)
        prof = distance_profile(world, space, q_at_origin(times), times)
        assert np.allclose(prof["a"], [0, 1, 2, 3, 4])
        assert np.allclose(prof["b"], [4, 3, 2, 1, 0])

    def test_absent_marked_inf(self, space):
        trajs = {"late": Trajectory(2, np.array([0, 1]))}
        times = np.arange(4)
        prof = distance_profile(trajs, space, q_at_origin(times), times)
        assert np.isinf(prof["late"][:2]).all()
        assert np.isfinite(prof["late"][2:]).all()

    def test_shape_mismatch(self, world, space):
        with pytest.raises(ValueError):
            distance_profile(world, space, np.zeros((2, 2)), np.arange(3))


class TestPerTimeNN:
    def test_crossing(self, world, space):
        times = np.arange(5)
        nn = nn_at_each_time(world, space, q_at_origin(times), times)
        assert nn[0] == {"a"}
        assert nn[1] == {"a"}
        assert nn[2] == {"a", "b"}  # tie at the crossing
        assert nn[3] == {"b"}
        assert nn[4] == {"b"}

    def test_nobody_alive(self, space):
        trajs = {"x": Trajectory(10, np.array([0]))}
        times = np.array([0])
        nn = nn_at_each_time(trajs, space, q_at_origin(times), times)
        assert nn == [set()]


class TestAggregates:
    def test_exists(self, world, space):
        times = np.arange(5)
        assert exists_nn_objects(world, space, q_at_origin(times), times) == {"a", "b"}

    def test_forall_empty_when_crossing(self, world, space):
        times = np.arange(5)
        assert forall_nn_objects(world, space, q_at_origin(times), times) == set()

    def test_forall_with_dominator(self, space):
        trajs = {
            "near": Trajectory(0, np.array([0, 0, 0])),
            "far": Trajectory(0, np.array([5, 5, 5])),
        }
        times = np.arange(3)
        assert forall_nn_objects(trajs, space, q_at_origin(times), times) == {"near"}


class TestContinuousIntervals:
    def test_crossing_produces_two_runs_with_overlap(self, world, space):
        times = np.arange(5)
        intervals = continuous_nn_intervals(world, space, q_at_origin(times), times)
        assert CNNInterval("a", 0, 2) in intervals
        assert CNNInterval("b", 2, 4) in intervals
        assert len(intervals) == 2

    def test_non_contiguous_times_split_runs(self, space):
        trajs = {"a": Trajectory(0, np.array([0] * 10))}
        times = np.array([0, 1, 5, 6])
        intervals = continuous_nn_intervals(trajs, space, q_at_origin(times), times)
        assert intervals == [CNNInterval("a", 0, 1), CNNInterval("a", 5, 6)]

    def test_single_time(self, world, space):
        times = np.array([0])
        intervals = continuous_nn_intervals(world, space, q_at_origin(times), times)
        assert intervals == [CNNInterval("a", 0, 0)]

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            CNNInterval("a", 3, 2)

    def test_intervals_cover_all_nn_times(self, world, space):
        times = np.arange(5)
        intervals = continuous_nn_intervals(world, space, q_at_origin(times), times)
        per_time = nn_at_each_time(world, space, q_at_origin(times), times)
        for col, t in enumerate(times):
            for owner in per_time[col]:
                assert any(
                    iv.owner == owner and iv.t_lo <= t <= iv.t_hi for iv in intervals
                )


class TestConsistencyWithSampledWorlds:
    def test_matches_tensor_statistics_on_degenerate_world(self):
        """A 'sampled' world of certain objects must agree with the
        vectorized tensor machinery used by the query engine."""
        from repro.trajectory.nn import exists_knn_prob, forall_knn_prob

        space = StateSpace(np.stack([np.arange(6.0), np.zeros(6)], axis=1))
        world = {
            "a": Trajectory(0, np.array([0, 1, 2])),
            "b": Trajectory(0, np.array([2, 2, 0])),
        }
        times = np.arange(3)
        q = q_at_origin(times)
        profiles = distance_profile(world, space, q, times)
        tensor = np.stack([profiles["a"], profiles["b"]])[None, :, :]
        p_forall = forall_knn_prob(tensor, 1)
        p_exists = exists_knn_prob(tensor, 1)
        assert (p_forall[0] == 1.0) == (
            "a" in forall_nn_objects(world, space, q, times)
        )
        assert (p_exists[1] == 1.0) == (
            "b" in exists_nn_objects(world, space, q, times)
        )
