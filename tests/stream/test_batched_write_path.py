"""The tick's write path as one batch vs the per-segment oracles.

``USTTree.update_many`` re-indexes every object a tick dirtied at once: the
diamonds they lack come from one labelled walk per matrices group
(``compute_diamonds_many``) and their bound-table rows from one rewrite.
Random tick batches — head appends, interior fixes, fixes before the first
one, ``AddObject`` (three chain kinds, some with an ``extend_to`` cone, one
with a single fix), ``RemoveObject`` and re-used ids — are held to

(i)  the per-segment walk of ``tests.oracles.reference_diamonds``: per-tic
     states, MBR rows and keys of every object;
(ii) a freshly built ``USTTree`` and the R*-tree filter loop
     (``prune_reference``): the maintained table prunes exactly like both;
(iii) with the ingest check off, a contradicting segment: its object's own
     "empty diamond" error, text for text, while its batch peers index.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.ust_tree import USTTree
from repro.stream.ingest import AddObject
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.diamonds import compute_diamonds_many
from tests.conftest import make_drift_chain, make_line_space
from tests.oracles import reference_diamonds, same_diamonds
from tests.oracles.shapes import MutatingWorld
from tests.spatial.test_ust_tree_incremental import _assert_prune_equal

pytestmark = [pytest.mark.oracles, pytest.mark.stream]

QUERIES = [
    (np.array([5.0, 5.0]), np.arange(2, 8)),
    (np.array([2.0, 7.5]), np.array([0, 4, 9, 13])),
]


def _check(world, context) -> None:
    for obj in world.db:
        reference = reference_diamonds(obj.chain, obj.observations, obj.extend_to)
        same_diamonds(obj.diamonds, reference, world.space, (*context, obj.object_id))
    oracle = USTTree(world.db)
    for point, times in QUERIES:
        for k in (1, 2):
            _assert_prune_equal(world.tree, oracle, np.tile(point, (times.size, 1)), times, k)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    ticks=st.lists(st.integers(1, 5), min_size=1, max_size=6),
)
def test_tick_batches_match_the_oracles(seed, ticks):
    world = MutatingWorld(seed)
    first = world.add_event("single")
    world.apply(AddObject("single", first.observations[:1], chain=first.chain))
    for _ in range(4):
        world.generation += 1
        world.apply(world.add_event(f"o{world.generation}"))
    world.sync_tree()
    _check(world, (seed, "setup"))
    for tick, n_events in enumerate(ticks):
        for _ in range(n_events):
            event = world.random_event()
            if event is not None:
                world.apply(event)
        world.sync_tree()  # one update_many over the tick's dirty ids
        _check(world, (seed, tick))


#: Fixes of ``a = [(0, 0), (4, 2), (8, 3)]`` the drift-only chain contradicts.
CONTRADICTING_FIXES = [(2, 3), (3, 0), (10, 1)]


@pytest.mark.usefixtures("unchecked_reachability")
@settings(max_examples=15, deadline=None)
@given(fix=st.sampled_from(CONTRADICTING_FIXES), n_peers=st.integers(1, 3))
def test_a_contradicting_segment_fails_alone(fix, n_peers):
    db = TrajectoryDatabase(make_line_space(8), make_drift_chain(8))
    db.add_object("a", [(0, 0), (4, 2), (8, 3)])
    peers = [f"p{i}" for i in range(n_peers)]
    for i, peer in enumerate(peers):
        db.add_object(peer, [(0, i), (3, i + 1)], extend_to=5 if i % 2 else None)
    tree = USTTree(db)
    db.add_observation("a", *fix)  # the ingest check is off: it lands
    for i, peer in enumerate(peers):
        db.add_observation(peer, 6, i + 2)
    with pytest.raises(ValueError) as expected:
        reference_diamonds(db.chain, db.get("a").observations)
    derived = compute_diamonds_many(
        [(obj.chain, obj.observations, obj.extend_to, ()) for obj in map(db.get, ["a", *peers])]
    )
    assert str(derived[0]) == str(expected.value)
    for peer, diamonds in zip(peers, derived[1:]):
        same_diamonds(diamonds, reference_diamonds(db.chain, db.get(peer).observations), db.space)
    with pytest.raises(ValueError) as raised:
        tree.update_many(["a", *peers])
    assert str(raised.value) == str(expected.value)
    # The peers were written by the failing batch: once the contradicting
    # object is gone, the table is the one a fresh build holds.
    db.remove_object("a")
    tree.update_many(["a"])
    times = np.arange(0, 9)
    _assert_prune_equal(tree, USTTree(db), np.tile([2.0, 0.0], (times.size, 1)), times)
