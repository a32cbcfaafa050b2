"""Shard-routed invalidation: mutations touch exactly the owning shard.

Satellite coverage for :meth:`WorldCache.invalidate_objects` and
:meth:`SamplingArena.discard` under shard-restricted databases: when one
object mutates, its owner shard drops exactly that object's worlds and
packed tables, while every surviving segment on every shard — including
parked per-object RNG streams — stays byte-identical.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.serve import ServeCoordinator

from tests.serve.conftest import (
    SEED,
    feasible_extension,
    standard_subscriptions,
    twin_db,
)

pytestmark = pytest.mark.serve

N_SHARDS = 3
N_SAMPLES = 120


@pytest.fixture
def warm_coordinator():
    db = twin_db()
    with ServeCoordinator(
        db,
        n_shards=N_SHARDS,
        seed=SEED,
        mode="inline",
        n_samples=N_SAMPLES,
        backend="compiled",
    ) as coord:
        for name, request in standard_subscriptions():
            coord.subscribe(request, name=name)
        coord.tick(())  # warm every shard's world cache and arena
        yield db, coord


def _workers(coord):
    return {
        shard: coord._transport.worker(shard)
        for shard in range(coord.n_shards)
    }


def _cache_snapshot(worker):
    return {
        key: (
            seg.t_first,
            seg.states.copy(),
            copy.deepcopy(seg.rng.bit_generator.state),
        )
        for key, seg in worker.engine.worlds._entries.items()
    }


def _pick_target(coord, workers):
    """An object that is cached somewhere and still alive."""
    for oid in sorted(coord.db.object_ids):
        shard = coord.router.shard_of(oid)
        cached = any(
            key[0] == oid for key in workers[shard].engine.worlds._entries
        )
        if cached:
            return oid, shard
    pytest.fail("warm tick cached no object worlds")


def test_shard_views_are_disjoint_and_complete(warm_coordinator):
    db, coord = warm_coordinator
    seen = []
    for shard, worker in _workers(coord).items():
        for oid in worker.engine.db.object_ids:
            assert coord.router.shard_of(oid) == shard
            seen.append(oid)
    assert sorted(seen) == sorted(db.object_ids)


def test_mutation_invalidates_only_owner_shard(warm_coordinator):
    db, coord = warm_coordinator
    workers = _workers(coord)
    target, owner = _pick_target(coord, workers)
    before = {shard: _cache_snapshot(w) for shard, w in workers.items()}
    segments_before = {
        shard: dict(w.engine.worlds._entries) for shard, w in workers.items()
    }
    arena_versions = {
        shard: w.engine._arena._version for shard, w in workers.items()
    }
    invalidated_before = coord.engine.worlds_invalidated.value

    coord.tick([feasible_extension(db, target)])

    assert coord.engine.worlds_invalidated.value > invalidated_before
    for shard, worker in workers.items():
        entries = worker.engine.worlds._entries
        for key, (t_first, states, rng_state) in before[shard].items():
            if key[0] == target:
                # The owner redrew the mutated object's segment: the old
                # one must be gone (a fresh object replaces it, or the
                # key is absent when no subscription needed it).
                assert shard == owner
                old = segments_before[shard][key]
                assert entries.get(key) is not old
                continue
            # Every surviving segment — on the owner and elsewhere — is
            # byte-identical, parked RNG stream included.
            seg = entries[key]
            assert seg is segments_before[shard][key]
            assert seg.t_first == t_first
            assert np.array_equal(seg.states, states)
            assert seg.rng.bit_generator.state == rng_state
    # The arena mutated (discard + re-pack) only inside the owner shard.
    assert workers[owner].engine._arena._version > arena_versions[owner]
    for shard, worker in workers.items():
        if shard != owner:
            assert worker.engine._arena._version == arena_versions[shard]


def test_direct_invalidate_and_discard_respect_shard_restriction(
    warm_coordinator,
):
    db, coord = warm_coordinator
    workers = _workers(coord)
    target, owner = _pick_target(coord, workers)
    for shard, worker in workers.items():
        if shard == owner:
            assert target in worker.engine.db
            assert worker.engine.worlds.invalidate_objects([target]) >= 1
            # Repeat invalidation is idempotent once the entries are gone.
            assert worker.engine.worlds.invalidate_objects([target]) == 0
        else:
            assert target not in worker.engine.db
            assert worker.engine.worlds.invalidate_objects([target]) == 0
            assert worker.engine._arena.discard(target) is False
