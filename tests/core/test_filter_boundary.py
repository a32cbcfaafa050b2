"""Query coordinates are validated where they meet the index.

A NaN or infinite coordinate compares false against every bound, so the
filter used to answer "nobody is near" without an error; a 1-d point
against a 2-d space broadcast into distances (and probabilities!) of
something that is not a point of the space, and a 3-d one died inside
numpy.  All four are now a ``ValueError`` naming the request's mode, the
query, its times and the offending shape or value — from every entry point
that filters.
"""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.spatial.ust_tree import USTTree
from repro.stream import ContinuousMonitor
from repro.trajectory.trajectory import Trajectory
from tests.conftest import make_random_world

pytestmark = pytest.mark.stream

TIMES = (2, 3, 4)
BAD_POINTS = {
    "nan": ([np.nan, 1.0], "must be finite, got nan"),
    "inf": ([np.inf, 1.0], "must be finite, got inf"),
    "1-d point": ([1.0], r"expected coordinates of shape \(3, 2\), got \(3, 1\)"),
    "3-d point": ([1.0, 2.0, 3.0], r"expected coordinates of shape \(3, 2\), got \(3, 3\)"),
}


@pytest.fixture
def db():
    db, _ = make_random_world(seed=7, n_objects=5, span=8, obs_every=3)
    return db


@pytest.mark.parametrize("label", BAD_POINTS)
class TestBadQueryPoint:
    def _request(self, label, mode="forall"):
        return QueryRequest(Query.from_point(BAD_POINTS[label][0]), TIMES, mode, 0.1)

    def _match(self, label, mode="forall"):
        return mode + r" point query over T=\[2, 3, 4\].*" + BAD_POINTS[label][1]

    @pytest.mark.parametrize("mode", ["forall", "exists", "pcnn", "reverse_nn"])
    def test_evaluate_and_explain_raise(self, db, label, mode):
        engine = QueryEngine(db, n_samples=50, seed=1)
        request = self._request(label, mode)
        with pytest.raises(ValueError, match=self._match(label, mode)):
            engine.evaluate(request)
        with pytest.raises(ValueError, match=self._match(label, mode)):
            engine.explain(request)
        with pytest.raises(ValueError, match=self._match(label, mode)):
            engine.evaluate_many([request])

    def test_unpruned_engine_raises_too(self, db, label):
        engine = QueryEngine(db, n_samples=50, seed=1, use_pruning=False)
        with pytest.raises(ValueError, match=self._match(label)):
            engine.evaluate(self._request(label))

    def test_subscription_raises_at_its_tick(self, db, label):
        """... on its own behalf: the good subscription sharing its window
        is filtered first and does not trip over its peer's coordinates."""
        monitor = ContinuousMonitor(QueryEngine(db, n_samples=50, seed=1))
        good = QueryRequest(Query.from_point([5.0, 5.0]), TIMES, "forall", 0.1)
        monitor.subscribe(good, name="good")
        monitor.subscribe(self._request(label), name="bad")
        assert monitor.engine.explain(good).influencers
        with pytest.raises(ValueError, match=self._match(label)):
            monitor.tick()
        monitor.unsubscribe("bad")
        assert monitor.tick().reevaluated == ("good",)

    def test_index_raises_on_both_paths(self, db, label):
        tree = USTTree(db)
        times = np.asarray(TIMES)
        coords = Query.from_point(BAD_POINTS[label][0]).coords_at(times)
        with pytest.raises(ValueError, match=BAD_POINTS[label][1]):
            tree.prune(coords, times)
        with pytest.raises(ValueError, match=BAD_POINTS[label][1]):
            tree.prune_many(np.stack([coords, coords]), times)


def test_one_location_per_query_time(db):
    tree = USTTree(db)
    with pytest.raises(ValueError, match=r"expected coordinates of shape \(3, 2\), got \(2, 2\)"):
        tree.prune(np.zeros((2, 2)), np.asarray(TIMES))
    with pytest.raises(ValueError, match="non-empty"):
        tree.prune(np.zeros((0, 2)), np.asarray([], dtype=int))
    with pytest.raises(ValueError, match=r"expected \(Q, len\(times\), d\)"):
        tree.prune_many(np.zeros((3, 2)), np.asarray(TIMES))


def test_a_peer_that_cannot_be_located_fails_alone(db):
    """A trajectory query off its span raises ``KeyError`` from
    ``coords_at`` — its own error, told when *it* asks: the request batched
    with it is answered, and in one kernel pass with the other good peer."""
    engine = QueryEngine(db, n_samples=50, seed=1)
    good = QueryRequest(Query.from_point([5.0, 5.0]), TIMES, "forall", 0.1)
    other = QueryRequest(Query.from_point([2.0, 7.0]), TIMES, "forall", 0.1)
    short = Trajectory(0, np.zeros(2, dtype=np.intp))  # covers tics 0..1 only
    bad = QueryRequest(Query.from_trajectory(short, db.space), TIMES, "forall", 0.1)
    alone = engine.explain(good)
    batches = []
    kernel = USTTree.prune_many

    def counting(self, q_coords, times, k=1):
        batches.append(len(q_coords))
        return kernel(self, q_coords, times, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(USTTree, "prune_many", counting)
        with engine.shared_filter([good, bad, other]):
            assert engine.explain(good).influencers == alone.influencers
            assert engine.explain(other).influencers
            with pytest.raises(KeyError, match="outside the trajectory span"):
                engine.explain(bad)
    assert batches == [2]
    with pytest.raises(KeyError, match="outside the trajectory span"):
        engine.evaluate_many([good, bad])
