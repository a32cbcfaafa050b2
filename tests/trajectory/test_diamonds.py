"""Tests for reachability diamonds."""

import numpy as np
import pytest
from scipy import sparse

from repro.core.exact import enumerate_consistent_trajectories
from repro.markov.chain import MarkovChain
from repro.statespace.base import StateSpace
from repro.trajectory.diamonds import compute_diamonds, reachable_states
from repro.trajectory.observation import ObservationSet


@pytest.fixture
def drift_chain():
    mat = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return MarkovChain(sparse.csr_matrix(mat))


@pytest.fixture
def space():
    return StateSpace(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))


class TestReachableStates:
    def test_forward_growth(self, drift_chain):
        sets = reachable_states(drift_chain, 0, 0, 3)
        assert list(sets[0]) == [0]
        assert list(sets[1]) == [0, 1]
        assert list(sets[2]) == [0, 1, 2]
        assert list(sets[3]) == [0, 1, 2, 3]

    def test_backward(self, drift_chain):
        sets = reachable_states(drift_chain, 3, 5, 2, backward=True)
        assert list(sets[0]) == [3]
        assert set(sets[1]) == {2, 3}
        assert set(sets[2]) == {1, 2, 3}

    def test_absorbing_state(self, drift_chain):
        sets = reachable_states(drift_chain, 3, 0, 2)
        assert all(list(s) == [3] for s in sets)


    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("positive", [False, True])
    def test_labelled_walks_are_the_single_walks(self, backward, positive):
        """Entries ``label * n + state`` advance several walks in one step;
        each label's states are that start's own walk, step for step."""
        from tests.conftest import make_random_world

        db, _ = make_random_world(seed=3, n_states=9)
        chain, n = db.chain, db.chain.n_states
        starts = [4, 0, 4, 8]
        walked = reachable_states(
            chain, n * np.arange(len(starts)) + starts, 5, 4, backward, positive
        )
        for label, start in enumerate(starts):
            alone = reachable_states(chain, start, 5, 4, backward, positive)
            for step, states in zip(walked, alone):
                mine = step[step // n == label] % n
                assert np.array_equal(mine, states), (label, step)


class TestComputeDiamonds:
    def test_endpoints_pinned(self, drift_chain):
        obs = ObservationSet([(0, 0), (3, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        assert list(diamond.states_at(0)) == [0]
        assert list(diamond.states_at(3)) == [2]

    def test_interior_is_forward_backward_intersection(self, drift_chain):
        obs = ObservationSet([(0, 0), (4, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        # At t=1: forward from 0 gives {0,1}; backward from 2 in 3 steps
        # gives {0,1,2}; intersection {0,1}.
        assert set(diamond.states_at(1)) == {0, 1}
        # At t=3 backward from 2 in 1 step gives {1,2}.
        assert set(diamond.states_at(3)) == {1, 2}

    def test_diamond_covers_every_consistent_path(self, drift_chain):
        """Soundness: every enumerated possible state is inside the diamond."""
        observations = [(0, 0), (5, 3)]
        (diamond,) = compute_diamonds(drift_chain, ObservationSet(observations))
        for ptraj in enumerate_consistent_trajectories(drift_chain, observations):
            for offset, state in enumerate(ptraj.states):
                assert state in diamond.states_at(offset)

    def test_diamond_is_tight(self, drift_chain):
        """Completeness: every diamond state occurs on some consistent path."""
        observations = [(0, 0), (5, 3)]
        (diamond,) = compute_diamonds(drift_chain, ObservationSet(observations))
        on_paths = {
            (offset, int(s))
            for ptraj in enumerate_consistent_trajectories(drift_chain, observations)
            for offset, s in enumerate(ptraj.states)
        }
        in_diamond = {
            (offset, int(s))
            for offset in range(6)
            for s in diamond.states_at(offset)
        }
        assert in_diamond == on_paths

    def test_multiple_segments(self, drift_chain):
        obs = ObservationSet([(0, 0), (2, 1), (5, 3)])
        diamonds = compute_diamonds(drift_chain, obs)
        assert len(diamonds) == 2
        assert diamonds[0].t_start == 0 and diamonds[0].t_end == 2
        assert diamonds[1].t_start == 2 and diamonds[1].t_end == 5

    def test_contradiction_raises(self, drift_chain):
        obs = ObservationSet([(0, 3), (2, 0)])  # cannot go left
        with pytest.raises(ValueError, match="empty diamond|contradict"):
            compute_diamonds(drift_chain, obs)

    def test_single_observation_degenerate(self, drift_chain):
        obs = ObservationSet([(4, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        assert diamond.t_start == diamond.t_end == 4
        assert list(diamond.states_at(4)) == [2]

    def test_extension_cone(self, drift_chain):
        obs = ObservationSet([(0, 0), (2, 1)])
        diamonds = compute_diamonds(drift_chain, obs, extend_to=4)
        assert len(diamonds) == 2
        cone = diamonds[1]
        assert cone.t_start == 2 and cone.t_end == 4
        assert set(cone.states_at(4)) == {1, 2, 3}


class TestDiamondGeometry:
    def test_spatial_mbr(self, drift_chain, space):
        obs = ObservationSet([(0, 0), (3, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        rect = diamond.spatial_mbr(space)
        assert rect.lo == (0.0, 0.0)
        assert rect.hi == (2.0, 0.0)

    def test_spatio_temporal_mbr_time_extent(self, drift_chain, space):
        obs = ObservationSet([(2, 0), (5, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        rect = diamond.spatio_temporal_mbr(space)
        assert rect.lo[-1] == 2.0
        assert rect.hi[-1] == 5.0

    def test_mbr_at_is_tighter(self, drift_chain, space):
        obs = ObservationSet([(0, 0), (4, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        per_tic = diamond.mbr_at(0, space)
        overall = diamond.spatial_mbr(space)
        assert overall.contains(per_tic)
        assert per_tic.volume() <= overall.volume()

    def test_states_at_outside_raises(self, drift_chain):
        obs = ObservationSet([(0, 0), (2, 1)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        with pytest.raises(KeyError):
            diamond.states_at(3)

    def test_width_and_all_states(self, drift_chain):
        obs = ObservationSet([(0, 0), (4, 2)])
        (diamond,) = compute_diamonds(drift_chain, obs)
        assert diamond.width_at(0) == 1
        assert set(diamond.all_states()) >= {0, 1, 2}
