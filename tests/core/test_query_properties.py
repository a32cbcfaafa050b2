"""Randomized cross-mode invariants over the new query classes.

Property-based harness (``-m properties``): 25 random mini-worlds, each
evaluated through the real pipeline, asserting relations that must hold
for *every* database — not specific numbers for one topology:

* **Temporal dominance** — ``P∃kNN ≥ P∀kNN`` pointwise (membership at
  every time implies membership at some time), forward and reverse.
* **Depth monotonicity** — kNN membership is monotone non-decreasing in
  ``k``: a world/time where an object is within the k nearest keeps it
  within the (k+1) nearest.
* **Telescoping** — ``P(rank = k) = P(rank ≤ k) − P(rank ≤ k−1)``
  exactly, over the same boolean tensors.
* **Reverse consistency** — reverse-PNN probabilities are probabilities
  (``[0, 1]``), cover exactly the influence set, and with a single
  competing pair the reverse ``k=2`` membership can only grow relative
  to ``k=1`` (losing to one competitor no longer disqualifies).
* **Classifier normalization** — label probabilities sum to 1, are
  non-negative, and cover exactly the labels with positive support.

Shared worlds make the cross-mode comparisons exact rather than
statistical: within one engine all modes consume the same draws, so the
invariants hold bit-wise, not merely within sampling error.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.analysis.classification import UncertainNNClassifier
from repro.core.evaluator import QueryEngine
from repro.core.knn import kth_nn_prob
from repro.core.queries import Query, QueryRequest
from repro.trajectory.nn import (
    knn_indicator,
    reverse_knn_indicator,
)
from tests.conftest import make_random_world

pytestmark = pytest.mark.properties

SEEDS = list(range(25))
TIMES = (1, 2, 3, 4)


def _world(seed):
    """A 4-object random world plus a query placed by the same seed."""
    db, rng = make_random_world(
        seed=seed, n_states=10, n_objects=4, span=6, obs_every=3
    )
    q = Query.from_point(rng.uniform(0, 10, size=2))
    return db, q


@contextmanager
def _held_engine(db, seed):
    """An engine whose every call in the block reads one held epoch."""
    engine = QueryEngine(db, n_samples=300, seed=seed)
    with engine.held_batch():
        yield engine


@pytest.mark.parametrize("seed", SEEDS)
def test_exists_dominates_forall_forward(seed):
    db, q = _world(seed)
    with _held_engine(db, seed) as eng:
        for k in (1, 2):
            raw = eng.evaluate(QueryRequest(q, TIMES, "raw", k=k))
            assert set(raw.forall) == set(raw.exists)
            for oid in raw.forall:
                assert raw.exists[oid] >= raw.forall[oid], (seed, k, oid)
                assert 0.0 <= raw.forall[oid] <= 1.0
                assert 0.0 <= raw.exists[oid] <= 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_exists_dominates_forall_reverse(seed):
    db, q = _world(seed)
    with _held_engine(db, seed) as eng:
        for k in (1, 2):
            res = eng.evaluate(QueryRequest(q, TIMES, "reverse_nn", k=k))
            assert set(res.probabilities) == set(res.exists)
            for oid in res.probabilities:
                assert res.exists[oid] >= res.probabilities[oid], (seed, k, oid)
                assert 0.0 <= res.probabilities[oid] <= 1.0
                assert 0.0 <= res.exists[oid] <= 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_knn_membership_monotone_in_k(seed):
    """P(o ∈ kNN) is non-decreasing in k — on the same worlds, exactly."""
    db, q = _world(seed)
    ids = sorted(db.object_ids)
    with _held_engine(db, seed) as eng:
        dist = eng.distance_tensor(ids, q, np.asarray(TIMES))
    prev = None
    for k in (1, 2, 3, 4):
        member = knn_indicator(dist, k)
        if prev is not None:
            assert np.all(member >= prev), (seed, k)
        prev = member
    # The same monotonicity through the pipeline (shared draws per engine):
    with _held_engine(db, seed) as eng:
        raws = eng.evaluate_many([QueryRequest(q, TIMES, "raw", k=k) for k in (1, 2, 3)])
    for smaller, larger in zip(raws, raws[1:]):
        for oid in smaller.forall:
            assert larger.forall[oid] >= smaller.forall[oid], (seed, oid)
            assert larger.exists[oid] >= smaller.exists[oid], (seed, oid)


@pytest.mark.parametrize("seed", SEEDS)
def test_kth_rank_probability_telescopes(seed):
    db, q = _world(seed)
    ids = sorted(db.object_ids)
    with _held_engine(db, seed) as eng:
        dist = eng.distance_tensor(ids, q, np.asarray(TIMES))
    for k in (2, 3):
        member_k = knn_indicator(dist, k)
        member_km1 = knn_indicator(dist, k - 1)
        # Exact over the boolean tensors (monotonicity: membership at
        # depth k-1 implies membership at depth k, so & ~ is set minus)…
        np.testing.assert_array_equal(
            kth_nn_prob(dist, k), (member_k & ~member_km1).mean(axis=0)
        )
        # …and equal to the difference of the cumulative means up to one
        # float rounding step.
        np.testing.assert_allclose(
            kth_nn_prob(dist, k),
            member_k.mean(axis=0) - member_km1.mean(axis=0),
            rtol=0, atol=1e-15,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_reverse_membership_monotone_in_k(seed):
    """Reverse kNN indicator is monotone in k on the same tensors."""
    db, q = _world(seed)
    ids = sorted(db.object_ids)
    with _held_engine(db, seed) as eng:
        dist, object_dist = eng.reverse_distance_tensors(ids, q, np.asarray(TIMES))
    prev = None
    for k in (1, 2, 3):
        member = reverse_knn_indicator(dist, object_dist, k)
        if prev is not None:
            assert np.all(member >= prev), (seed, k)
        prev = member
    # At k >= |competitors| + 1 every alive object qualifies: nobody can
    # accumulate enough closer competitors to push the query out.
    full = reverse_knn_indicator(dist, object_dist, len(ids))
    np.testing.assert_array_equal(full, np.isfinite(dist))


@pytest.mark.parametrize("seed", SEEDS)
def test_reverse_covers_influence_set(seed):
    db, q = _world(seed)
    with _held_engine(db, seed) as eng:
        res = eng.evaluate(QueryRequest(q, TIMES, "reverse_nn", k=1))
    overlapping = {
        o.object_id for o in db.objects_overlapping(np.asarray(TIMES))
    }
    assert set(res.probabilities) == overlapping
    assert res.report.n_influencers == len(overlapping)


@pytest.mark.parametrize("seed", SEEDS)
def test_classifier_probabilities_normalize(seed):
    db, q = _world(seed)
    labels = {
        oid: ("near" if i < 2 else "far")
        for i, oid in enumerate(sorted(db.object_ids))
    }
    with _held_engine(db, seed) as eng:
        clf = UncertainNNClassifier(eng, labels, aggregate="exists")
        dist = clf.label_probabilities(q, TIMES)
    total = sum(dist.probabilities.values())
    assert total == pytest.approx(1.0, abs=1e-12), seed
    assert all(p >= 0.0 for p in dist.probabilities.values())
    # Labels reported are exactly those with positive evidence mass.
    assert set(dist.probabilities) == {
        label for label, mass in dist.support.items()
    }
    assert dist.label in dist.probabilities
