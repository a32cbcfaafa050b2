"""The UST-tree: spatio-temporal index and pruning for PNN queries.

Section 6 of the paper (following Emrich et al., CIKM 2012 [25]): every
inter-observation segment of every object is conservatively approximated by
a minimum bounding rectangle over its reachable states and time interval;
the rectangles are indexed in an R*-tree.  Query evaluation uses the MBRs'
``dmin``/``dmax`` distances to the query to split the database into

* candidates ``C∀(q)`` — objects that may have non-zero ``P∀NN``,
* influence objects ``I∀(q)`` — objects that may affect anyone's
  probability (needed for correct refinement even when pruned themselves),
* pruned objects — irrelevant to both results and probabilities.

For P∃NN queries every influence object is a potential result, so the
refinement set equals ``I(q)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..trajectory.database import TrajectoryDatabase
from .geometry import Rect, maxdist_point_rect, mindist_point_rect
from .rstar import RStarTree

__all__ = ["SegmentKey", "PruningResult", "USTTree"]


@dataclass
class _SegmentColumns:
    """Columnar snapshot of every indexed segment (the vectorized filter's
    working form).

    One row per segment entry: spatial MBR bounds, covered time span and
    the owning object's position in the lexicographically sorted id list
    (so scatter targets come out in the same order the dict-based
    reference path sorts into).  Rebuilt lazily after any index mutation.
    """

    ids: list[str]
    lo: np.ndarray  # (E, d) spatial MBR lower bounds
    hi: np.ndarray  # (E, d) spatial MBR upper bounds
    t0: np.ndarray  # (E,) segment start times
    t1: np.ndarray  # (E,) segment end times
    obj: np.ndarray  # (E,) row -> index into ``ids``


@dataclass(unsafe_hash=True)
class SegmentKey:
    """Identifies one indexed segment: object + diamond index + time span.

    An object's segments have distinct time spans, so the span is the
    identity; ``segment`` — the position in ``db.diamonds_of(object_id)`` —
    is renumbered in place when a fix earlier in the lifespan shifts the
    entries the index keeps.
    """

    object_id: str
    segment: int = field(compare=False)
    t_start: int
    t_end: int


@dataclass
class PruningResult:
    """Outcome of the § 6 filter step.

    Attributes
    ----------
    candidates:
        Object ids possibly satisfying the ∀-semantics (``C∀(q)``).
    influencers:
        Object ids that may influence NN probabilities (``I∀(q)``);
        a superset of ``candidates``.
    prune_distances:
        Per query time: the pruning bound ``min_o dmax(o(t), q(t))``
        (k-th smallest for kNN queries).
    examined_entries:
        Number of index entries touched (index-efficiency metric).
    """

    candidates: list[str]
    influencers: list[str]
    prune_distances: np.ndarray
    examined_entries: int = 0
    dmin_bounds: dict[str, np.ndarray] = field(default_factory=dict)
    dmax_bounds: dict[str, np.ndarray] = field(default_factory=dict)


class USTTree:
    """R*-tree over per-segment spatio-temporal MBRs of a database.

    Parameters
    ----------
    db:
        The uncertain trajectory database to index.
    max_entries:
        R*-tree node capacity.
    """

    def __init__(self, db: TrajectoryDatabase, max_entries: int = 16) -> None:
        self.db = db
        self._by_object: dict[str, list[tuple[Rect, SegmentKey]]] = {}
        items: list[tuple[Rect, SegmentKey]] = []
        for obj in db:
            entries = self._segment_items(obj.object_id)
            self._by_object[obj.object_id] = entries
            items.extend(entries)
        self.tree = RStarTree.bulk_load(items, max_entries=max_entries)
        self._n_segments = len(items)
        # Lazy vectorized-filter state: the columnar segment snapshot and
        # the per-object (tic -> diamond MBR) refinement tables.  Both are
        # derived from the indexed segments, so any index mutation drops
        # them (the snapshot wholesale, the tables per object).
        self._columns: _SegmentColumns | None = None
        self._refine_tables: dict[str, tuple] = {}
        #: Optional :class:`repro.obs.MetricsRegistry` feed — the owning
        #: engine binds its registry here so prune volume is scrapeable
        #: (``ust_prune_calls_total`` / ``ust_examined_entries_total``).
        self.metrics = None

    def _segment_items(self, object_id: str) -> list[tuple[Rect, SegmentKey]]:
        """Index entries for one object's current reachability diamonds."""
        return [
            (
                diamond.spatio_temporal_mbr(self.db.space),
                SegmentKey(
                    object_id=object_id,
                    segment=seg_idx,
                    t_start=diamond.t_start,
                    t_end=diamond.t_end,
                ),
            )
            for seg_idx, diamond in enumerate(self.db.diamonds_of(object_id))
        ]

    # ------------------------------------------------------------------
    # incremental maintenance (streaming ingest)
    # ------------------------------------------------------------------
    def _reindex(self, object_id: str, items: list[tuple[Rect, SegmentKey]]) -> int:
        """Make ``items`` the object's index entries; returns how many
        entries left the R*-tree.

        Only what differs is touched: an entry whose time span and MBR are
        unchanged stays where it is in the tree (its key renumbered in
        place), so a fix costs the R*-tree the segments it reshaped, not
        the object's lifespan.
        """
        stale = {
            (key.t_start, key.t_end): (rect, key)
            for rect, key in self._by_object.pop(object_id, ())
        }
        entries: list[tuple[Rect, SegmentKey]] = []
        fresh: list[tuple[Rect, SegmentKey]] = []
        for rect, key in items:
            span = (key.t_start, key.t_end)
            kept = stale.get(span)
            if kept is not None and kept[0] == rect:
                del stale[span]
                kept[1].segment = key.segment
                entries.append(kept)
            else:
                entries.append((rect, key))
                fresh.append((rect, key))
        removed = self.tree.delete_many(list(stale.values()))
        self.tree.insert_many(fresh)
        if entries:
            self._by_object[object_id] = entries
        self._n_segments += len(fresh) - removed
        if fresh or stale:
            self._columns = None
        self._refine_tables.pop(object_id, None)
        return removed

    def insert_object(self, object_id: str) -> int:
        """Index one (new) object's segments in place; returns the count.

        Pruning over the updated tree is exactly what a freshly rebuilt
        tree would compute: dmin/dmax bounds are accumulated per entry and
        :meth:`RStarTree.search` returns every intersecting entry whatever
        the tree's internal shape, so only the R*-tree's node layout —
        never a query answer — depends on the insertion history (the
        equivalence-oracle tests assert this).
        """
        object_id = str(object_id)
        if object_id in self._by_object:
            raise KeyError(f"object {object_id!r} is already indexed")
        entries = self._segment_items(object_id)
        self._reindex(object_id, entries)
        return len(entries)

    def remove_object(self, object_id: str) -> int:
        """Drop one object's segments from the index; returns the count
        removed (0 when the object was not indexed)."""
        return self._reindex(str(object_id), [])

    def update_object(self, object_id: str) -> None:
        """Re-index one object after a database mutation.

        Diffs the object's indexed entries against its current diamonds —
        none when the object is gone — and deletes / inserts only the
        entries that differ: a head append inserts one entry, an interior
        refinement deletes one and inserts two, whatever the lifespan.
        This is the streaming path's alternative to rebuilding the whole
        tree per ingested observation.
        """
        object_id = str(object_id)
        self._reindex(
            object_id,
            self._segment_items(object_id) if object_id in self.db else [],
        )

    def __contains__(self, object_id: str) -> bool:
        return str(object_id) in self._by_object

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_segments

    def segments_overlapping(self, t_lo: int, t_hi: int):
        """Index entries whose time extent intersects ``[t_lo, t_hi]``."""
        space_rect = self.db.space.bounding_rect()
        window = Rect(
            space_rect.lo + (float(t_lo),),
            space_rect.hi + (float(t_hi),),
        )
        return self.tree.search(window)

    # ------------------------------------------------------------------
    def prune(
        self,
        q_coords: np.ndarray,
        times: np.ndarray,
        k: int = 1,
        refine_per_tic: bool = True,
        vectorized: bool = True,
    ) -> PruningResult:
        """Compute candidates and influence objects for a PNN query.

        Parameters
        ----------
        q_coords:
            ``(len(times), d)`` query locations — one per query time
            (constant rows for a query state).
        times:
            Sorted, unique query times ``T``.
        k:
            NN cardinality; pruning uses the k-th smallest ``dmax`` so that
            kNN queries (Section 8) remain correct.
        refine_per_tic:
            After segment-level filtering, tighten ``dmin``/``dmax`` with
            the exact per-tic diamond MBRs of surviving objects.
        vectorized:
            ``True`` (default) runs the columnar filter: one broadcasted
            ``mindist``/``maxdist`` over all (segment, covered-tic) pairs,
            scattered per (object, tic) with ``np.maximum.at`` /
            ``np.minimum.at``, and a gathered per-tic MBR refinement.
            ``False`` keeps the per-entry python loop as the reference
            oracle the parity tests compare against.  Both are
            bit-identical: max/min accumulation is order-independent and
            the elementwise distance arithmetic is the same.
        """
        times = np.asarray(times, dtype=np.intp)
        if times.size == 0:
            raise ValueError("query time set must be non-empty")
        q_coords = np.asarray(q_coords, dtype=float)
        if q_coords.shape[0] != times.size:
            raise ValueError("one query location per query time is required")
        if vectorized:
            result = self._prune_vectorized(q_coords, times, k, refine_per_tic)
        else:
            result = self._prune_reference(q_coords, times, k, refine_per_tic)
        if self.metrics is not None:
            self.metrics.counter(
                "ust_prune_calls_total",
                help="Filter-stage prune passes over the UST-tree.",
            ).inc()
            self.metrics.counter(
                "ust_examined_entries_total",
                help="Index entries examined across prune passes.",
            ).inc(result.examined_entries)
        return result

    def _prune_reference(
        self,
        q_coords: np.ndarray,
        times: np.ndarray,
        k: int,
        refine_per_tic: bool,
    ) -> PruningResult:
        """Per-entry filter loop (the pre-vectorization implementation)."""
        entries = self.segments_overlapping(int(times.min()), int(times.max()))
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
            self._refine_per_tic(dmin, dmax, q_coords, times)

        return self._classify(dmin, dmax, times, k, examined)

    # ------------------------------------------------------------------
    def _refine_per_tic(
        self,
        dmin: dict[str, np.ndarray],
        dmax: dict[str, np.ndarray],
        q_coords: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Tighten bounds with per-tic diamond MBRs (Example 2's dashes).

        Observation tics belong to *two* adjacent diamonds (each pins the
        observed state from its own side); every covering diamond yields a
        valid bound, so the tightest of each kind is kept across all of
        them — stopping at the first match would discard whichever
        neighbor happens to bound tighter.
        """
        for object_id in dmin:
            diamonds = self.db.diamonds_of(object_id)
            for pos, t in enumerate(times):
                for diamond in diamonds:
                    if diamond.t_start <= t <= diamond.t_end:
                        rect = diamond.mbr_at(int(t), self.db.space)
                        lo = float(mindist_point_rect(q_coords[pos], rect))
                        hi = float(maxdist_point_rect(q_coords[pos], rect))
                        dmin[object_id][pos] = max(dmin[object_id][pos], lo)
                        dmax[object_id][pos] = min(dmax[object_id][pos], hi)

    def _classify(
        self,
        dmin: dict[str, np.ndarray],
        dmax: dict[str, np.ndarray],
        times: np.ndarray,
        k: int,
        examined: int,
    ) -> PruningResult:
        n_t = times.size
        if not dmin:
            return PruningResult([], [], np.full(n_t, np.inf), examined)

        ids = sorted(dmin)
        dmax_matrix = np.stack([dmax[i] for i in ids])  # (objects, times)
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
            dmin_bounds=dmin,
            dmax_bounds=dmax,
        )

    # ------------------------------------------------------------------
    # vectorized filter-refine
    # ------------------------------------------------------------------
    def _segment_columns(self) -> _SegmentColumns:
        """The columnar segment snapshot, rebuilt after index mutations."""
        cols = self._columns
        if cols is None:
            ids = sorted(self._by_object)
            dim = len(self.db.space.bounding_rect().lo)
            lo: list = []
            hi: list = []
            t0: list = []
            t1: list = []
            obj: list = []
            for pos, oid in enumerate(ids):
                for rect, key in self._by_object[oid]:
                    lo.append(rect.lo[:-1])
                    hi.append(rect.hi[:-1])
                    t0.append(key.t_start)
                    t1.append(key.t_end)
                    obj.append(pos)
            cols = _SegmentColumns(
                ids=ids,
                lo=np.asarray(lo, dtype=float).reshape(len(lo), dim),
                hi=np.asarray(hi, dtype=float).reshape(len(hi), dim),
                t0=np.asarray(t0, dtype=np.intp),
                t1=np.asarray(t1, dtype=np.intp),
                obj=np.asarray(obj, dtype=np.intp),
            )
            self._columns = cols
        return cols

    def _refine_table(self, object_id: str) -> tuple:
        """Per-object ``(t_base, t_hi, covered, slots)`` refinement table.

        ``slots`` is a list of ``(lo, hi)`` array pairs of shape
        ``(n_tics, d)`` indexed by ``t - t_base``: slot 0 holds each tic's
        first covering diamond's MBR, slot ``s > 0`` the ``s+1``-th where
        one exists (observation tics are covered by both adjacent
        diamonds).  Tics a slot does not cover are back-filled with slot
        0's rect — max/min accumulation is idempotent, so applying the
        same rect twice changes nothing and the gather needs no per-slot
        validity mask.  ``covered`` masks tics no diamond covers at all.
        """
        table = self._refine_tables.get(object_id)
        if table is None:
            diamonds = self.db.diamonds_of(object_id)
            space = self.db.space
            t_base = min(d.t_start for d in diamonds)
            t_hi = max(d.t_end for d in diamonds)
            length = t_hi - t_base + 1
            count = np.zeros(length, dtype=np.intp)
            slots: list[tuple[np.ndarray, np.ndarray]] = []
            for dia in diamonds:
                dlo, dhi = dia.mbr_arrays(space)
                idx = np.arange(dia.t_start, dia.t_end + 1) - t_base
                depth = count[idx]
                while len(slots) <= int(depth.max()):
                    dim = dlo.shape[1]
                    slots.append(
                        (np.zeros((length, dim)), np.zeros((length, dim)))
                    )
                for s in range(int(depth.max()) + 1):
                    at = idx[depth == s]
                    slots[s][0][at] = dlo[depth == s]
                    slots[s][1][at] = dhi[depth == s]
                count[idx] += 1
            covered = count > 0
            for s in range(1, len(slots)):
                fill = count <= s
                slots[s][0][fill] = slots[0][0][fill]
                slots[s][1][fill] = slots[0][1][fill]
            table = (t_base, t_hi, covered, slots)
            self._refine_tables[object_id] = table
        return table

    def _refine_vectorized(
        self,
        dmin_mat: np.ndarray,
        dmax_mat: np.ndarray,
        ids: list[str],
        q_coords: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Tighten the bound matrices with gathered per-tic diamond MBRs.

        The vectorized form of :meth:`_refine_per_tic`: per-object tables
        are concatenated (with row offsets), every (object, in-span tic)
        pair gathers its rects, and one broadcasted ``mindist``/``maxdist``
        per slot replaces the python triple loop.  Identical elementwise
        arithmetic and order-independent max/min keep it bit-identical to
        the reference loop.
        """
        tables = [self._refine_table(oid) for oid in ids]
        t_base = np.asarray([t[0] for t in tables], dtype=np.intp)
        t_hi = np.asarray([t[1] for t in tables], dtype=np.intp)
        lengths = np.asarray([t[2].size for t in tables], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        cat_cover = np.concatenate([t[2] for t in tables])
        max_slots = max(len(t[3]) for t in tables)
        in_span = (times[None, :] >= t_base[:, None]) & (
            times[None, :] <= t_hi[:, None]
        )
        pair_o, pair_t = np.nonzero(in_span)
        if pair_o.size == 0:
            return
        row = offsets[pair_o] + (times[pair_t] - t_base[pair_o])
        keep = cat_cover[row]
        pair_o, pair_t, row = pair_o[keep], pair_t[keep], row[keep]
        if pair_o.size == 0:
            return
        pts = q_coords[pair_t]
        for s in range(max_slots):
            # Objects without slot ``s`` contribute their slot 0 again
            # (idempotent under max/min).
            cat_lo = np.concatenate(
                [t[3][s][0] if s < len(t[3]) else t[3][0][0] for t in tables]
            )
            cat_hi = np.concatenate(
                [t[3][s][1] if s < len(t[3]) else t[3][0][1] for t in tables]
            )
            rlo = cat_lo[row]
            rhi = cat_hi[row]
            delta = np.maximum(np.maximum(rlo - pts, pts - rhi), 0.0)
            lo_d = np.sqrt(np.sum(delta * delta, axis=-1))
            delta = np.maximum(np.abs(pts - rlo), np.abs(rhi - pts))
            hi_d = np.sqrt(np.sum(delta * delta, axis=-1))
            dmin_mat[pair_o, pair_t] = np.maximum(dmin_mat[pair_o, pair_t], lo_d)
            dmax_mat[pair_o, pair_t] = np.minimum(dmax_mat[pair_o, pair_t], hi_d)

    def _prune_vectorized(
        self,
        q_coords: np.ndarray,
        times: np.ndarray,
        k: int,
        refine_per_tic: bool,
    ) -> PruningResult:
        """Columnar filter-refine: one broadcasted distance pass over all
        (segment, covered-tic) pairs, scattered with ``np.maximum.at`` /
        ``np.minimum.at`` into per-(object, tic) bound matrices."""
        cols = self._segment_columns()
        n_t = times.size
        t_lo, t_hi = int(times.min()), int(times.max())
        sel = (cols.t0 <= t_hi) & (cols.t1 >= t_lo)
        examined = int(np.count_nonzero(sel))
        if examined == 0:
            return PruningResult([], [], np.full(n_t, np.inf), examined)
        e = np.flatnonzero(sel)
        covered = (times[None, :] >= cols.t0[e, None]) & (
            times[None, :] <= cols.t1[e, None]
        )
        pair_e, pair_t = np.nonzero(covered)
        if pair_e.size == 0:
            # Entries overlap the query hull but cover none of its
            # (possibly sparse) times.
            return PruningResult([], [], np.full(n_t, np.inf), examined)
        obj_pairs = cols.obj[e][pair_e]
        present = np.unique(obj_pairs)
        rows_map = np.full(len(cols.ids), -1, dtype=np.intp)
        rows_map[present] = np.arange(present.size)
        dmin_mat = np.full((present.size, n_t), -np.inf)
        dmax_mat = np.full((present.size, n_t), np.inf)
        plo = cols.lo[e][pair_e]
        phi = cols.hi[e][pair_e]
        pts = q_coords[pair_t]
        delta = np.maximum(np.maximum(plo - pts, pts - phi), 0.0)
        lo_d = np.sqrt(np.sum(delta * delta, axis=-1))
        delta = np.maximum(np.abs(pts - plo), np.abs(phi - pts))
        hi_d = np.sqrt(np.sum(delta * delta, axis=-1))
        rows = rows_map[obj_pairs]
        np.maximum.at(dmin_mat, (rows, pair_t), lo_d)
        np.minimum.at(dmax_mat, (rows, pair_t), hi_d)
        # Tics no segment covers: dmax stayed +inf, dmin must read +inf
        # too (not the -inf scatter identity).
        uncovered = np.isinf(dmax_mat)
        dmin_mat[uncovered] = np.inf
        present_ids = [cols.ids[i] for i in present]
        if refine_per_tic:
            self._refine_vectorized(dmin_mat, dmax_mat, present_ids, q_coords, times)
        return self._classify_matrix(
            present_ids, dmin_mat, dmax_mat, times, k, examined
        )

    def _classify_matrix(
        self,
        ids: list[str],
        dmin_mat: np.ndarray,
        dmax_mat: np.ndarray,
        times: np.ndarray,
        k: int,
        examined: int,
    ) -> PruningResult:
        """Matrix form of :meth:`_classify` (same semantics, no dict loop)."""
        n_t = times.size
        if not ids:
            return PruningResult([], [], np.full(n_t, np.inf), examined)
        finite_counts = np.isfinite(dmax_mat).sum(axis=0)
        if k <= dmax_mat.shape[0]:
            kth = np.sort(dmax_mat, axis=0)[k - 1]
        else:
            kth = np.full(n_t, np.inf)
        prune_dist = np.where(finite_counts >= k, kth, np.inf)
        alive = np.isfinite(dmax_mat)
        within = dmin_mat <= prune_dist[None, :]
        influencer_mask = (alive & within).any(axis=1)
        candidate_mask = alive.all(axis=1) & within.all(axis=1)
        return PruningResult(
            candidates=[ids[i] for i in np.flatnonzero(candidate_mask)],
            influencers=[ids[i] for i in np.flatnonzero(influencer_mask)],
            prune_distances=prune_dist,
            examined_entries=examined,
            dmin_bounds={oid: dmin_mat[i] for i, oid in enumerate(ids)},
            dmax_bounds={oid: dmax_mat[i] for i, oid in enumerate(ids)},
        )
