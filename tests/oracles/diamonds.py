"""Reachability diamonds as Example 2 draws them: per segment, one forward
walk from its first fix and one backward walk from its second, intersected
tic by tic — the per-segment walk the batched labelled walk of
``repro.trajectory.diamonds.compute_diamonds_many`` replaced."""

from __future__ import annotations

import numpy as np

from repro.trajectory.diamonds import reachable_states

from .adaptation import same_array


def reference_segment(chain, t0: int, s0: int, t1: int, s1: int | None) -> list[np.ndarray]:
    """Per-tic states of the diamond between ``(t0, s0)`` and ``(t1, s1)``
    (the open cone to ``t1`` when ``s1`` is ``None``).  Raises the "empty
    diamond" ``ValueError`` at the first tic no state survives."""
    gap = t1 - t0
    fwd = reachable_states(chain, s0, t0, gap)
    if s1 is None:
        return fwd
    bwd = reachable_states(chain, s1, t1, gap, backward=True)
    per_tic = []
    for k in range(gap + 1):
        states = np.intersect1d(fwd[k], bwd[gap - k], assume_unique=True)
        if states.size == 0:
            raise ValueError(
                f"empty diamond at t={t0 + k}: observations "
                f"({t0},{s0}) -> ({t1},{s1}) "
                "contradict the chain"
            )
        per_tic.append(states)
    return per_tic


def reference_diamonds(chain, observations, extend_to=None) -> list[tuple]:
    """``(t_start, t_end, key, per-tic states)`` per diamond of one object,
    in ``compute_diamonds`` order — segment by segment, then the cone; a
    single fix pins its point (key ``None``).  Raises the earliest empty
    segment's ``ValueError``."""
    keys = [(a.time, a.state, b.time, b.state) for a, b in observations.segments()]
    last = observations.last
    if extend_to is not None and extend_to > last.time:
        keys.append((last.time, last.state, int(extend_to), None))
    if not keys:
        return [(last.time, last.time, None, [np.asarray([last.state])])]
    return [(key[0], key[2], key, reference_segment(chain, *key)) for key in keys]


def reference_tic_bounds(space, per_tic) -> tuple[np.ndarray, np.ndarray]:
    """Per-tic ``(lo, hi)`` MBR rows, one ``min`` / ``max`` per tic."""
    coords = [space.coords_of(states) for states in per_tic]
    return (
        np.asarray([c.min(axis=0) for c in coords]),
        np.asarray([c.max(axis=0) for c in coords]),
    )


def same_diamonds(live, reference, space, context=()) -> None:
    """``live`` diamonds hold the reference's spans, keys, per-tic states
    (by value: the reference's single walks may be ``int32``) and per-tic
    MBR rows (to the byte)."""
    assert len(live) == len(reference), context
    for i, (diamond, (t_start, t_end, key, per_tic)) in enumerate(zip(live, reference)):
        ctx = (*context, i)
        assert (diamond.t_start, diamond.t_end, diamond.key) == (t_start, t_end, key), ctx
        assert len(diamond.states_per_tic) == len(per_tic), ctx
        for states, expected in zip(diamond.states_per_tic, per_tic):
            same_array(states, np.asarray(expected, dtype=np.intp), (*ctx, "states"))
        for rows, expected in zip(diamond.mbr_arrays(space), reference_tic_bounds(space, per_tic)):
            same_array(rows, expected, (*ctx, "mbr"))
