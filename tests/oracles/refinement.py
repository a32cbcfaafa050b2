"""Refinement the slow way: per-object draws, world-major kernels."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.queries import normalize_times

from .sampling import reference_sample_paths


def loop_states(engine, object_ids, times, n_samples=None, sample=reference_sample_paths):
    """``(states[o, t, w], alive[o, t])`` object by object (``-1`` where an
    object is dead): one draw each from the object's own ``(object, epoch,
    round)`` stream, by the row-dict walk (``sample(model, rng, n, t_lo,
    t_hi)`` — a benchmark baseline passes the compiled per-object sampler
    to time the loop, not the walk).

    To be called right after the engine call it checks and in the same
    batch context: it reads, never advances, the engine's epoch and
    direct-draw round.  Where the engine shares worlds (inside a batch, or
    ``reuse_worlds``) each object is drawn *once* over the window its cache
    segment covers now — whatever sequence of hits, forward extensions and
    backward redraws produced that segment, one draw of its final window
    must reproduce it.
    """
    n = engine.n_samples if n_samples is None else int(n_samples)
    share = engine.reuse_worlds or engine._batch_depth > 0
    states = np.full((len(object_ids), times.size, n), -1, dtype=np.intp)
    alive = np.zeros((len(object_ids), times.size), dtype=bool)
    for col, object_id in enumerate(object_ids):
        obj = engine.db.get(object_id)
        alive[col] = obj.alive_during(times)
        if not alive[col].any():
            continue
        alive_times = times[alive[col]]
        if share:
            segment = engine.worlds.peek((obj.object_id, n))
            assert segment is not None, f"no cached worlds for {object_id!r}"
            t_lo, t_hi, round_ = segment.t_first, segment.t_last, 0
        else:
            t_lo, t_hi = int(alive_times[0]), int(alive_times[-1])
            round_ = engine._direct_round
        rng = engine._object_rng(obj.object_id, round_)
        paths = sample(obj.adapted, rng, n, t_lo, t_hi)
        states[col, alive[col]] = paths[:, alive_times - t_lo].T
    return states, alive


def loop_distance_tensor(
    engine, object_ids, q, times, n_samples=None, sample=reference_sample_paths
):
    """``dist[w, o, t]`` — the oracle of ``engine.distance_tensor`` — from
    :func:`loop_states`: one subtract/square/sum/sqrt broadcast per object
    against the query, ``inf`` where the object is dead."""
    times = normalize_times(times)
    states, alive = loop_states(engine, object_ids, times, n_samples, sample)
    q_coords = q.coords_at(times)
    dist = np.full((states.shape[2], len(object_ids), times.size), np.inf)
    for col in range(len(object_ids)):
        coords = engine.db.space.coords_of(states[col, alive[col]])  # (alive tics, n, d)
        diff = coords - q_coords[alive[col]][:, None, :]
        dist[:, col, alive[col]] = np.sqrt(np.sum(diff * diff, axis=-1)).T
    return dist


def loop_object_distances(engine, object_ids, times, n_samples=None):
    """``object_dist[w, a, o, t] = d(a(t), o(t))`` — the second answer of
    ``engine.reverse_distance_tensors`` — pair by pair from
    :func:`loop_states`; ``inf`` on the diagonal and where either is dead."""
    times = normalize_times(times)
    states, alive = loop_states(engine, object_ids, times, n_samples)
    n_objects, n = len(object_ids), states.shape[2]
    object_dist = np.full((n, n_objects, n_objects, times.size), np.inf)
    space = engine.db.space
    for a in range(n_objects):
        for o in range(n_objects):
            both = alive[a] & alive[o]
            if a == o or not both.any():
                continue
            diff = space.coords_of(states[a, both]) - space.coords_of(states[o, both])
            object_dist[:, a, o, both] = np.sqrt(np.sum(diff * diff, axis=-1)).T
    return object_dist


@contextmanager
def checking_distances(engine):
    """Hold every ``engine.distance_tensor`` / ``reverse_distance_tensors``
    call made inside the block — by a query, a batch, a monitor tick — to
    the loop oracles above, byte for byte; yields the list of checked
    calls' object-id lists."""
    forward, reverse = engine.distance_tensor, engine.reverse_distance_tensors
    checked = []

    def distance_tensor(object_ids, q, times, n_samples=None, **kwargs):
        dist = forward(object_ids, q, times, n_samples, **kwargs)
        want = loop_distance_tensor(engine, object_ids, q, times, n_samples)
        assert np.array_equal(dist, want), (list(object_ids), list(times))
        checked.append(list(object_ids))
        return dist

    def reverse_distance_tensors(object_ids, q, times, n_samples=None, **kwargs):
        dist, object_dist = reverse(object_ids, q, times, n_samples, **kwargs)
        context = (list(object_ids), list(times))
        assert np.array_equal(
            dist, loop_distance_tensor(engine, object_ids, q, times, n_samples)
        ), context
        assert np.array_equal(
            object_dist, loop_object_distances(engine, object_ids, times, n_samples)
        ), context
        checked.append(list(object_ids))
        return dist, object_dist

    engine.distance_tensor = distance_tensor
    engine.reverse_distance_tensors = reverse_distance_tensors
    try:
        yield checked
    finally:
        del engine.distance_tensor, engine.reverse_distance_tensors


def world_major_distances(space, q_coords, times, alive, states, n):
    """``dist[w, o, t]`` by the tile/scatter kernel the world-minor block
    replaced.

    ``states[i]`` is the C-ordered ``(n, alive tics)`` block of the i-th
    object that is alive at all.
    """
    live_cols = np.flatnonzero(alive.any(axis=1))
    dist = np.full((n, alive.shape[0], times.size), np.inf)
    if live_cols.size == 0:
        return dist
    flat_alive = np.flatnonzero(alive[live_cols].ravel())
    col_index = live_cols[flat_alive // times.size]
    time_index = flat_alive % times.size
    diff = space.coords[None, :, :] - q_coords[:, None, :]
    per_state = np.sqrt(np.sum(diff * diff, axis=-1))  # (T, S)
    packed = np.concatenate(states, axis=1)  # (n, total columns)
    assert packed.flags.c_contiguous
    dist[:, col_index, time_index] = per_state[time_index, packed]
    return dist


def partition_indicator(dist, k):
    """The ``np.partition`` form of the kNN indicator, on any ``k``."""
    if k >= dist.shape[1]:
        return np.isfinite(dist)
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k, :]
    return (dist <= kth) & np.isfinite(dist)
