"""Tests for query references, requests and time-set normalization."""

import numpy as np
import pytest

from repro.core.queries import Query, QueryRequest, normalize_times, union_window
from repro.statespace.base import StateSpace
from repro.trajectory.trajectory import Trajectory


@pytest.fixture
def space():
    return StateSpace(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 2.0]]))


class TestNormalizeTimes:
    def test_sorts_and_dedups(self):
        out = normalize_times([5, 1, 3, 1])
        assert list(out) == [1, 3, 5]

    def test_accepts_range(self):
        assert list(normalize_times(range(3))) == [0, 1, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_times([])

    @pytest.mark.parametrize("bad", [2.7, 1.5, float("nan"), float("inf"), 1e300])
    def test_fractional_and_non_finite_times_refused(self, bad):
        """A time is an integer tic: truncating ``2.7`` to ``2`` would query
        another instant, and NaN must not surface as numpy's bare
        ``cannot convert float NaN to integer``."""
        for times in ((1, bad), np.array([1.0, bad])):
            with pytest.raises(ValueError, match="query times must be integers"):
                normalize_times(times)

    def test_integral_floats_and_numpy_integers_accepted(self):
        out = normalize_times([np.float64(3.0), 1.0, np.int32(2), np.uint8(2)])
        assert out.dtype == np.intp and list(out) == [1, 2, 3]
        assert list(normalize_times(np.array([4.0, 2.0]))) == [2, 4]

    def test_non_numbers_refused(self):
        with pytest.raises(TypeError, match="query times must be integers"):
            normalize_times(["1"])


class TestQueryKinds:
    def test_state_query_constant(self, space):
        q = Query.from_state(space, 2)
        coords = q.coords_at(np.array([0, 5, 9]))
        assert coords.shape == (3, 2)
        assert np.allclose(coords, [2.0, 2.0])

    def test_state_query_bounds(self, space):
        with pytest.raises(ValueError):
            Query.from_state(space, 3)

    def test_point_query(self):
        q = Query.from_point([0.5, 0.5])
        coords = q.coords_at(np.array([1, 2]))
        assert np.allclose(coords, [0.5, 0.5])

    def test_point_query_must_be_1d(self):
        with pytest.raises(ValueError):
            Query.from_point([[0.0, 1.0]])

    def test_trajectory_query_moves(self, space):
        traj = Trajectory(10, np.array([0, 1, 2]))
        q = Query.from_trajectory(traj, space)
        coords = q.coords_at(np.array([10, 12]))
        assert np.allclose(coords[0], [0.0, 0.0])
        assert np.allclose(coords[1], [2.0, 2.0])

    def test_trajectory_query_outside_span(self, space):
        traj = Trajectory(10, np.array([0, 1]))
        q = Query.from_trajectory(traj, space)
        with pytest.raises(KeyError):
            q.coords_at(np.array([9]))

    def test_kind_labels(self, space):
        assert Query.from_state(space, 0).kind == "state"
        assert Query.from_point([0.0, 0.0]).kind == "point"
        traj = Trajectory(0, np.array([0]))
        assert Query.from_trajectory(traj, space).kind == "trajectory"


class TestQueryRequestValidation:
    @pytest.fixture
    def q(self):
        return Query.from_point([0.0, 0.0])

    def test_empty_times_rejected_at_construction(self, q):
        with pytest.raises(ValueError, match="non-empty"):
            QueryRequest(q, ())

    def test_times_coerced_to_ints(self, q):
        req = QueryRequest(q, np.array([3, 1, 1]))
        assert req.times == (3, 1, 1)
        assert all(isinstance(t, int) for t in req.times)
        assert req.window == (1, 3)

    @pytest.mark.parametrize("bad", [1.5, float("nan"), float("-inf")])
    def test_fractional_and_non_finite_times_rejected(self, q, bad):
        """``(1.5, 2)`` used to evaluate T = {1, 2}."""
        with pytest.raises(ValueError, match="time must be an integer"):
            QueryRequest(q, (bad, 2), "forall", 0.1)

    def test_integral_float_times_coerced(self, q):
        req = QueryRequest(q, (np.float64(2.0), 1.0, np.int64(3)))
        assert req.times == (2, 1, 3)
        assert all(type(t) is int for t in req.times)

    def test_unknown_mode_rejected(self, q):
        with pytest.raises(ValueError, match="mode"):
            QueryRequest(q, (1,), "sometimes")

    def test_raw_mode_accepted(self, q):
        assert QueryRequest(q, (1,), "raw").mode == "raw"

    def test_unknown_estimator_rejected(self, q):
        with pytest.raises(ValueError, match="estimator"):
            QueryRequest(q, (1,), estimator="psychic")

    def test_adaptive_requires_precision(self, q):
        with pytest.raises(ValueError, match="precision"):
            QueryRequest(q, (1,), estimator="adaptive")

    @pytest.mark.parametrize(
        "precision",
        [(0.0, 0.1), (0.1, 1.0), (1.5, 0.1), ("a",), 0.3, (None, 0.1), (0.05, "x")],
    )
    def test_bad_precision_rejected(self, q, precision):
        with pytest.raises(ValueError):
            QueryRequest(q, (1,), precision=precision)

    def test_precision_coerced_to_floats(self, q):
        req = QueryRequest(q, (1,), precision=(0.05, 0.01))
        assert req.precision == (0.05, 0.01)

    def test_nonpositive_n_samples_rejected(self, q):
        with pytest.raises(ValueError, match="n_samples"):
            QueryRequest(q, (1,), n_samples=0)

    @pytest.mark.parametrize("n", [-2, 2.5, True, "7"])
    def test_n_samples_follows_the_rule_of_k(self, q, n):
        with pytest.raises(ValueError, match="n_samples must be"):
            QueryRequest(q, (1,), n_samples=n)

    def test_numpy_integer_n_samples_coerced(self, q):
        n = QueryRequest(q, (1,), n_samples=np.int64(40)).n_samples
        assert n == 40 and isinstance(n, int)

    def test_union_window_spans_all_requests(self, q):
        reqs = [QueryRequest(q, (3, 4)), QueryRequest(q, (1, 2))]
        assert union_window(reqs) == (1, 4)

    def test_union_window_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="no query times"):
            union_window([])


class TestKDepthValidation:
    """The kNN depth is validated at construction, mirroring the
    empty-times check: fail fast, with a message naming the bad value."""

    @pytest.fixture
    def q(self):
        return Query.from_point([0.0, 0.0])

    def test_default_k_is_one(self, q):
        assert QueryRequest(q, (1,)).k == 1

    @pytest.mark.parametrize("k", [0, -1, -17])
    def test_nonpositive_k_rejected(self, q, k):
        with pytest.raises(ValueError, match=rf"k must be >= 1, got {k}"):
            QueryRequest(q, (1,), k=k)

    @pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
    def test_non_integer_k_rejected(self, q, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            QueryRequest(q, (1,), k=k)

    def test_bool_k_rejected(self, q):
        # bool is an int subclass; silently reading True as k=1 would
        # mask a caller bug, so it is rejected explicitly.
        with pytest.raises(ValueError, match="k must be an integer"):
            QueryRequest(q, (1,), k=True)

    def test_numpy_integer_k_coerced(self, q):
        req = QueryRequest(q, (1,), k=np.int64(2))
        assert req.k == 2 and isinstance(req.k, int)

    def test_k_accepted_for_every_mode(self, q):
        for mode in ("forall", "exists", "pcnn", "raw", "reverse_nn"):
            tau = 0.1 if mode == "pcnn" else 0.0
            assert QueryRequest(q, (1,), mode, tau, k=3).k == 3
