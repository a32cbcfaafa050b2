"""Shared fixtures/helpers for the serving-layer suite.

Every lockstep test here runs a *twin* experiment: one plain
``ContinuousMonitor`` over a single-process ``QueryEngine`` and one
``ServeCoordinator`` over an identically seeded database, driven by the
same event script, comparing notifications, result payloads and per-tick
reuse counters for exact equality.
"""

from __future__ import annotations

import numpy as np

from repro.core.queries import Query, QueryRequest
from repro.stream.ingest import AddObject, AddObservation, RemoveObject
from repro.stream.monitor import _result_payload
from tests.conftest import make_random_world

SEED = 29


def twin_db(seed: int = 11, **kwargs):
    """One deterministic database; call twice for a twin pair."""
    kwargs.setdefault("n_objects", 6)
    kwargs.setdefault("span", 10)
    kwargs.setdefault("obs_every", 4)
    db, _rng = make_random_world(seed=seed, **kwargs)
    return db


def standard_subscriptions():
    """Four subscriptions spanning the monitored semantics."""
    q = Query.from_point([5.0, 5.0])
    moving = Query.from_point([3.0, 6.0])
    return [
        ("forall", QueryRequest(q, (2, 3, 4, 5), "forall", 0.05)),
        ("exists", QueryRequest(moving, (4, 5, 6), "exists", 0.1)),
        ("pcnn", QueryRequest(q, (3, 4, 5, 6), "pcnn", 0.2)),
        ("raw", QueryRequest(moving, (2, 3), "raw")),
    ]


def feasible_extension(db, object_id):
    """Extend one object by a next observation its chain allows."""
    obj = db.get(object_id)
    last = obj.observations.last
    row = db.chain.matrix[last.state]
    row = (
        row.toarray().ravel()
        if hasattr(row, "toarray")
        else np.asarray(row).ravel()
    )
    nxt = int(np.flatnonzero(row > 0)[0])
    return AddObservation(object_id, last.time + 1, nxt)


def event_script(db):
    """Six ticks of mixed stream traffic (extend, add, remove, idle)."""
    ids = sorted(db.object_ids)
    return [
        [],
        [feasible_extension(db, ids[0])],
        [AddObject("fresh", [(2, 0), (5, 1), (8, 2)])],
        [feasible_extension(db, ids[1]), feasible_extension(db, ids[2])],
        [RemoveObject(ids[3])],
        [],
    ]


def seam_subscriptions():
    """The standard four plus the two refinement paths they never reach:
    a ``reverse_nn`` request (a staged ``"states"`` job) and a ``hybrid``
    one (skipped by the staging, so its blocks are filled live from inside
    ``evaluate``)."""
    q = Query.from_point([5.0, 5.0])
    moving = Query.from_point([3.0, 6.0])
    return standard_subscriptions() + [
        ("reverse", QueryRequest(q, (3, 4, 5), "reverse_nn", 0.05)),
        ("reverse-k2", QueryRequest(moving, (3, 4, 5), "reverse_nn", 0.05, k=2)),
        # Its own query point: sharing one with a sampled subscription
        # would serve it from that subscription's refine-cache entry.
        (
            "hybrid",
            QueryRequest(
                Query.from_point([6.0, 4.0]), (4, 5, 6), "forall", 0.1, estimator="hybrid"
            ),
        ),
    ]


def seam_script(db):
    """An interior fix, a head append and a remove / re-add, with idle
    ticks around them."""
    ids = sorted(db.object_ids)
    fixed, gone = db.get(ids[0]), db.get(ids[3])
    return [
        [],
        [AddObservation(ids[0], 2, int(fixed.ground_truth.states[2]))],
        [feasible_extension(db, ids[1])],
        [RemoveObject(ids[3])],
        [AddObject(ids[3], [(o.time, o.state) for o in gone.observations])],
        [],
    ]


def assert_reports_identical(ra, rb, context=()):
    """One tick's single-process vs sharded reports must match exactly."""
    assert len(ra.notifications) == len(rb.notifications), context
    for na, nb in zip(ra.notifications, rb.notifications):
        ctx = (*context, na.subscription)
        assert na.subscription == nb.subscription, ctx
        assert na.reevaluated == nb.reevaluated, ctx
        assert na.reason == nb.reason, (*ctx, na.reason, nb.reason)
        assert na.changed == nb.changed, ctx
        assert _result_payload(na.result) == _result_payload(nb.result), ctx
    assert ra.reuse == rb.reuse, (*context, ra.reuse, rb.reuse)
