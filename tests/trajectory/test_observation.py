"""Tests for observations and observation sets."""

import numpy as np
import pytest

from repro.trajectory.observation import Observation, ObservationSet


class TestObservation:
    def test_ordering_by_time(self):
        assert Observation(1, 5) < Observation(2, 0)

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            Observation(0, -1)

    def test_frozen(self):
        obs = Observation(0, 1)
        with pytest.raises(AttributeError):
            obs.time = 5


class TestObservationSet:
    def test_sorts_inputs(self):
        s = ObservationSet([(5, 2), (1, 0), (3, 1)])
        assert s.times == (1, 3, 5)
        assert s.first == Observation(1, 0)
        assert s.last == Observation(5, 2)

    def test_accepts_observation_instances(self):
        s = ObservationSet([Observation(2, 1), (0, 0)])
        assert s.times == (0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ObservationSet([])

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            ObservationSet([(1, 0), (1, 1)])

    def test_state_at(self):
        s = ObservationSet([(0, 7), (4, 9)])
        assert s.state_at(0) == 7
        assert s.state_at(4) == 9
        assert s.state_at(2) is None

    def test_span(self):
        s = ObservationSet([(2, 0), (9, 1)])
        assert s.span == (2, 9)

    def test_as_pairs(self):
        s = ObservationSet([(3, 1), (0, 0)])
        assert s.as_pairs() == [(0, 0), (3, 1)]

    def test_segments(self):
        s = ObservationSet([(0, 0), (2, 1), (5, 2)])
        segs = list(s.segments())
        assert len(segs) == 2
        assert segs[0] == (Observation(0, 0), Observation(2, 1))
        assert segs[1] == (Observation(2, 1), Observation(5, 2))

    def test_single_observation_no_segments(self):
        s = ObservationSet([(0, 0)])
        assert list(s.segments()) == []

    def test_iteration_and_indexing(self):
        s = ObservationSet([(1, 0), (0, 5)])
        assert len(s) == 2
        assert s[0] == Observation(0, 5)
        assert [o.time for o in s] == [0, 1]


class TestHostileValues:
    """Times and states are integers: a fractional or non-finite value is
    refused where the observation is made, never truncated."""

    @pytest.mark.parametrize(
        "time, state",
        [(1.5, 2), (2, 2.5), (1.5, 2.5), (float("inf"), 1), (float("-inf"), 0),
         (float("nan"), 1), (1, float("inf")), (np.float64(3.25), 0)],
    )
    def test_non_integral_or_non_finite_rejected(self, time, state):
        with pytest.raises(ValueError, match="must be an integer"):
            Observation(time, state)

    def test_set_rejects_instead_of_truncating(self):
        with pytest.raises(ValueError, match="time must be an integer, got 2.7"):
            ObservationSet([(2.7, 3), (5.2, 1)])

    def test_integral_floats_and_numpy_integers_accepted(self):
        obs = Observation(np.int64(3), 2.0)
        assert obs == Observation(3, 2)
        assert type(obs.time) is int and type(obs.state) is int
        s = ObservationSet([(np.int32(4), np.float64(1.0)), (np.uint8(0), True)])
        assert s.as_pairs() == [(0, 1), (4, 1)]

    @pytest.mark.parametrize("value", [None, "3", [1]])
    def test_non_numbers_rejected(self, value):
        with pytest.raises(TypeError, match="must be an integer"):
            Observation(value, 0)
