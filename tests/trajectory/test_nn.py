"""Tests for world-level NN statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.trajectory.nn import (
    exists_knn_prob,
    forall_knn_prob,
    forall_prob_over_times,
    knn_indicator,
)


class TestNNIndicator:
    def test_single_world_simple(self):
        # worlds=1, objects=2, times=2: object 0 closer at both times.
        dist = np.array([[[1.0, 1.0], [2.0, 2.0]]])
        ind = knn_indicator(dist, 1)
        assert ind[0, 0].all()
        assert not ind[0, 1].any()

    def test_ties_count_for_both(self):
        dist = np.array([[[1.0], [1.0]]])
        ind = knn_indicator(dist, 1)
        assert ind[0, 0, 0] and ind[0, 1, 0]

    def test_absent_object_never_nn(self):
        dist = np.array([[[np.inf], [2.0]]])
        ind = knn_indicator(dist, 1)
        assert not ind[0, 0, 0]
        assert ind[0, 1, 0]

    def test_all_absent_no_nn(self):
        dist = np.array([[[np.inf], [np.inf]]])
        assert not knn_indicator(dist, 1).any()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            knn_indicator(np.zeros((2, 2)), 1)


class TestAggregates:
    @pytest.fixture
    def tensor(self):
        # 2 worlds, 2 objects, 2 times.
        return np.array(
            [
                [[1.0, 3.0], [2.0, 1.0]],  # world 0: o0 NN at t0, o1 at t1
                [[1.0, 1.0], [2.0, 2.0]],  # world 1: o0 NN at both
            ]
        )

    def test_forall(self, tensor):
        p = forall_knn_prob(tensor, 1)
        assert p[0] == pytest.approx(0.5)
        assert p[1] == pytest.approx(0.0)

    def test_exists(self, tensor):
        p = exists_knn_prob(tensor, 1)
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.5)

    def test_per_time(self, tensor):
        p = knn_indicator(tensor, 1).mean(axis=0)
        assert p[0, 0] == pytest.approx(1.0)
        assert p[0, 1] == pytest.approx(0.5)
        assert p[1, 1] == pytest.approx(0.5)


class TestKNN:
    def test_k2_includes_second(self):
        dist = np.array([[[1.0], [2.0], [3.0]]])
        ind = knn_indicator(dist, 2)
        assert ind[0, 0, 0] and ind[0, 1, 0] and not ind[0, 2, 0]

    def test_k_geq_objects_includes_all_alive(self):
        dist = np.array([[[1.0], [2.0], [np.inf]]])
        ind = knn_indicator(dist, 5)
        assert ind[0, 0, 0] and ind[0, 1, 0] and not ind[0, 2, 0]

    def test_tied_distances_share_rank(self):
        dist = np.array([[[1.0], [1.0], [2.0]]])
        ind = knn_indicator(dist, 1)
        assert ind[0, 0, 0] and ind[0, 1, 0] and not ind[0, 2, 0]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            knn_indicator(np.zeros((1, 1, 1)), 0)

    def test_k1_is_the_minimum(self):
        rng = np.random.default_rng(0)
        dist = rng.uniform(size=(20, 5, 4))
        assert (knn_indicator(dist, 1) == (dist == dist.min(axis=1, keepdims=True))).all()

    def test_forall_exists_k(self):
        dist = np.array(
            [
                [[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]],
            ]
        )
        assert forall_knn_prob(dist, 2)[0] == 1.0
        assert forall_knn_prob(dist, 2)[1] == 0.0
        assert exists_knn_prob(dist, 2)[1] == 1.0


class TestForallOverTimes:
    def test_column_subsets(self):
        ind = np.array([[True, False, True], [True, True, True]])
        assert forall_prob_over_times(ind, [0]) == 1.0
        assert forall_prob_over_times(ind, [1]) == 0.5
        assert forall_prob_over_times(ind, [0, 2]) == 1.0
        assert forall_prob_over_times(ind, [0, 1, 2]) == 0.5

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            forall_prob_over_times(np.ones((2, 2), dtype=bool), [])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            forall_prob_over_times(np.ones(3, dtype=bool), [0])


finite_tensors = npst.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(1, 6), st.integers(1, 5), st.integers(1, 4)
    ),
    elements=st.floats(0.0, 100.0, allow_nan=False),
)


class TestProperties:
    @given(finite_tensors)
    @settings(max_examples=100)
    def test_exists_geq_forall(self, dist):
        assert (exists_knn_prob(dist, 1) >= forall_knn_prob(dist, 1) - 1e-12).all()

    @given(finite_tensors)
    @settings(max_examples=100)
    def test_some_nn_exists_when_all_alive(self, dist):
        ind = knn_indicator(dist, 1)
        # At every (world, time) at least one object attains the minimum.
        assert ind.any(axis=1).all()

    @given(finite_tensors, st.integers(1, 5))
    @settings(max_examples=100)
    def test_knn_monotone_in_k(self, dist, k):
        a = knn_indicator(dist, k)
        b = knn_indicator(dist, k + 1)
        assert (b | ~a).all()  # a implies b

    @given(finite_tensors)
    @settings(max_examples=50)
    def test_anti_monotone_over_time_subsets(self, dist):
        ind = knn_indicator(dist, 1)[:, 0, :]
        n_t = ind.shape[1]
        if n_t < 2:
            return
        p_small = forall_prob_over_times(ind, [0])
        p_big = forall_prob_over_times(ind, list(range(n_t)))
        assert p_big <= p_small + 1e-12
