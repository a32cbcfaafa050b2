"""The § 6 filter as the paper's index runs it: an R*-tree of per-segment
(x, y, t) boxes, walked entry by entry."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.spatial.geometry import Rect, maxdist_point_rect, mindist_point_rect
from repro.spatial.ust_tree import PruningResult, check_query_coords

from .adaptation import same_array
from .rstar import RStarTree


class SegmentKey(NamedTuple):
    """One indexed segment: object, position in ``db.diamonds_of`` and span."""

    object_id: str
    segment: int
    t_start: int
    t_end: int


def segment_items(db) -> list[tuple[Rect, SegmentKey]]:
    """One ``(spatio-temporal MBR, key)`` entry per reachability diamond,
    objects in sorted id order."""
    return [
        (diamond.spatio_temporal_mbr(db.space), SegmentKey(oid, i, diamond.t_start, diamond.t_end))
        for oid in sorted(obj.object_id for obj in db)
        for i, diamond in enumerate(db.diamonds_of(oid))
    ]


def segment_tree(db, max_entries: int = 16) -> RStarTree:
    """The paper's index: the segment boxes of ``db``, bulk-loaded."""
    return RStarTree.bulk_load(segment_items(db), max_entries=max_entries)


def prune_reference(db, q_coords, times, k=1, refine_per_tic=True, tree=None) -> PruningResult:
    """Candidates and influence objects by the per-entry filter loop.

    ``refine_per_tic=False`` stops at the segment MBRs' bounds (the
    "segment MBRs" arm of the refinement ablation); with it the bounds are
    tightened by every covering diamond's per-tic MBR and the result is the
    byte oracle of ``USTTree.prune`` / ``prune_many``.  ``tree`` is a
    prebuilt :func:`segment_tree` of ``db`` (built here when omitted).
    """
    times = np.asarray(times, dtype=np.intp)
    q_coords = check_query_coords(q_coords, times, db.space.ndim)
    tree = segment_tree(db) if tree is None else tree
    space_rect = db.space.bounding_rect()
    window = Rect(
        space_rect.lo + (float(times.min()),),
        space_rect.hi + (float(times.max()),),
    )
    entries = tree.search(window)
    examined = len(entries)

    # Segment-level dmin/dmax per (object, query-time).
    n_t = times.size
    dmin: dict[str, np.ndarray] = {}
    dmax: dict[str, np.ndarray] = {}
    for entry in entries:
        key: SegmentKey = entry.data
        spatial = Rect(entry.rect.lo[:-1], entry.rect.hi[:-1])
        covered = (times >= key.t_start) & (times <= key.t_end)
        if not covered.any():
            continue
        lo = mindist_point_rect(q_coords[covered], spatial)
        hi = maxdist_point_rect(q_coords[covered], spatial)
        if key.object_id not in dmin:
            dmin[key.object_id] = np.full(n_t, np.inf)
            dmax[key.object_id] = np.full(n_t, np.inf)
        idx = np.flatnonzero(covered)
        # Several segments may cover an observation tic; each yields a
        # valid bound, so keep the tightest of each kind.
        dmin[key.object_id][idx] = np.where(
            np.isinf(dmin[key.object_id][idx]),
            lo,
            np.maximum(dmin[key.object_id][idx], lo),
        )
        dmax[key.object_id][idx] = np.minimum(dmax[key.object_id][idx], hi)

    if refine_per_tic:
        _refine_per_tic(db, dmin, dmax, q_coords, times)
    return _classify(dmin, dmax, times, k, examined)


def same_pruning(got: PruningResult, want: PruningResult, context=()) -> None:
    """Two filter results agree down to the dtype and bytes of every bound."""
    assert got.candidates == want.candidates, context
    assert got.influencers == want.influencers, context
    assert got.examined_entries == want.examined_entries, context
    same_array(got.prune_distances, want.prune_distances, context)
    assert list(got.dmin_bounds) == list(want.dmin_bounds), context
    for oid in want.dmin_bounds:
        same_array(got.dmin_bounds[oid], want.dmin_bounds[oid], (*context, oid))
        same_array(got.dmax_bounds[oid], want.dmax_bounds[oid], (*context, oid))


def _refine_per_tic(db, dmin, dmax, q_coords, times) -> None:
    """Tighten bounds with per-tic diamond MBRs (Example 2's dashes).

    Observation tics belong to *two* adjacent diamonds (each pins the
    observed state from its own side); every covering diamond yields a
    valid bound, so the tightest of each kind is kept across all of
    them — stopping at the first match would discard whichever
    neighbor happens to bound tighter.
    """
    for object_id in dmin:
        diamonds = db.diamonds_of(object_id)
        for pos, t in enumerate(times):
            for diamond in diamonds:
                if diamond.t_start <= t <= diamond.t_end:
                    rect = diamond.mbr_at(int(t), db.space)
                    lo = float(mindist_point_rect(q_coords[pos], rect))
                    hi = float(maxdist_point_rect(q_coords[pos], rect))
                    dmin[object_id][pos] = max(dmin[object_id][pos], lo)
                    dmax[object_id][pos] = min(dmax[object_id][pos], hi)


def _classify(dmin, dmax, times, k, examined) -> PruningResult:
    n_t = times.size
    if not dmin:
        return PruningResult([], [], np.full(n_t, np.inf), examined)

    ids = sorted(dmin)
    dmin_matrix = np.stack([dmin[i] for i in ids])  # (objects, times)
    dmax_matrix = np.stack([dmax[i] for i in ids])
    finite_counts = np.sum(np.isfinite(dmax_matrix), axis=0)
    prune_dist = np.full(n_t, np.inf)
    for col in range(n_t):
        col_vals = np.sort(dmax_matrix[:, col])
        if finite_counts[col] >= k:
            prune_dist[col] = col_vals[k - 1]

    candidates: list[str] = []
    influencers: list[str] = []
    for object_id in ids:
        lo = dmin[object_id]
        alive = np.isfinite(dmax[object_id])
        relevant = alive & (lo <= prune_dist)
        if relevant.any():
            influencers.append(object_id)
        if alive.all() and bool(np.all(lo <= prune_dist)):
            candidates.append(object_id)
    return PruningResult(
        candidates=candidates,
        influencers=influencers,
        prune_distances=prune_dist,
        examined_entries=examined,
        bounds=(ids, dmin_matrix, dmax_matrix),
    )
