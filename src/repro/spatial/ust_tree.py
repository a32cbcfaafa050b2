"""The UST-tree: spatio-temporal index and pruning for PNN queries.

Section 6 of the paper (following Emrich et al., CIKM 2012 [25]): every
inter-observation segment of every object is conservatively approximated by
a minimum bounding rectangle over its reachable states and time interval.
Query evaluation uses the MBRs' ``dmin``/``dmax`` distances to the query to
split the database into

* candidates ``C∀(q)`` — objects that may have non-zero ``P∀NN``,
* influence objects ``I∀(q)`` — objects that may affect anyone's
  probability (needed for correct refinement even when pruned themselves),
* pruned objects — irrelevant to both results and probabilities.

For P∃NN queries every influence object is a potential result, so the
refinement set equals ``I(q)``.

The diamonds are kept as a **per-tic bound table**, which the filter
(:meth:`USTTree.prune_many`) scans: one row per
(object, tic) holding the MBRs of the diamonds covering that tic, written
by :meth:`USTTree.update_many` once per tick for every object the tick
dirtied (one batched diamond derivation, one table rewrite) and never
rebuilt inside a query.  A
diamond's per-tic MBR lies inside its segment MBR and ``mindist`` /
``maxdist`` are monotone under containment, so the per-tic bounds alone
*are* the filter's bounds — no segment-level pass precedes them.  The
paper's index, an R\\*-tree over per-segment (x, y, t) boxes walked entry
by entry, is this module's oracle and lives in ``tests/oracles/``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..trajectory.database import TrajectoryDatabase
from ..trajectory.diamonds import bound_tics
from ..trajectory.trajectory import derive_diamonds

__all__ = ["PruningResult", "USTTree", "check_query_coords"]


def check_query_coords(
    q_coords, times: np.ndarray, ndim: int, label: str = "query"
) -> np.ndarray:
    """``q_coords`` as a float array whose trailing shape is
    ``(len(times), ndim)`` and whose values are finite — else a
    ``ValueError`` naming ``label``, the times and what is off.

    A NaN or infinite coordinate compares false against every bound (an
    empty filter result, silently); a point of the wrong dimension
    broadcasts into a meaningless distance or dies deep inside numpy.
    """
    coords = np.asarray(q_coords, dtype=float)
    if times.size == 0:
        raise ValueError("query time set must be non-empty")
    if coords.shape[-2:] != (times.size, ndim):
        raise ValueError(
            f"{label} over T={times.tolist()}: one location per query time in the "
            f"space's {ndim} dimension(s) is required — expected coordinates of "
            f"shape {(times.size, ndim)}, got {coords.shape[-2:]}"
        )
    if not np.isfinite(coords).all():
        raise ValueError(
            f"{label} over T={times.tolist()}: coordinates must be finite, "
            f"got {coords[~np.isfinite(coords)][0]}"
        )
    return coords


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
    bounds:
        ``(ids, dmin[O, T], dmax[O, T])`` — the filter's bound matrices
        over the objects covering at least one query time (``+inf`` where
        an object is not alive); :attr:`dmin_bounds` / :attr:`dmax_bounds`
        are per-object views of them.
    """

    candidates: list[str]
    influencers: list[str]
    prune_distances: np.ndarray
    examined_entries: int = 0
    bounds: tuple = field(default=((), None, None), repr=False)

    @property
    def dmin_bounds(self) -> dict[str, np.ndarray]:
        ids, dmin, _ = self.bounds
        return {oid: dmin[i] for i, oid in enumerate(ids)}

    @property
    def dmax_bounds(self) -> dict[str, np.ndarray]:
        ids, _, dmax = self.bounds
        return {oid: dmax[i] for i, oid in enumerate(ids)}


def _deepen(rect: np.ndarray, depth: int) -> np.ndarray:
    """``rect`` with ``depth`` slots, the missing ones repeating slot 0."""
    extra = depth - rect.shape[1]
    return np.concatenate((rect, *[rect[:, :1]] * extra), axis=1) if extra > 0 else rect


class USTTree:
    """Per-tic bound table over a database's reachability diamonds.

    Parameters
    ----------
    db:
        The uncertain trajectory database to index.
    """

    def __init__(self, db: TrajectoryDatabase) -> None:
        self.db = db
        #: The :class:`repro.obs.MetricsRegistry` prune volume counts into
        #: (``ust_prune_calls_total`` / ``ust_examined_entries_total``) —
        #: the owning engine binds its own registry here.
        self.metrics = MetricsRegistry()
        self._counters: tuple | None = None
        # The bound table, struct-of-arrays.  Objects are kept in sorted id
        # order (the order results list them in); object ``i`` owns rows
        # ``_row_ptr[i]:_row_ptr[i + 1]``, one per tic from ``_t_base[i]``
        # on.  ``_rect[0, s, j, row]`` / ``_rect[1, s, j, row]`` are the
        # lower / upper bound in dimension ``j`` of the ``s``-th diamond
        # covering the row's tic (an observation tic is covered by both
        # adjacent diamonds); slots a tic does not use repeat slot 0, which
        # max/min accumulation cannot tell from applying it once.  Which
        # covering diamond lands in which slot is irrelevant: each yields a
        # valid bound and the scan keeps the tightest of each kind across
        # all slots.  A tic no diamond covers holds the empty rect (lo =
        # +inf, hi = -inf), whose dmin and dmax are +inf for any finite
        # point; so does row 0, where the scan sends every (object, tic)
        # pair outside the object's span — it needs no mask.
        # ``_segs[0, row]`` / ``_segs[1, row]`` count the object's segments
        # begun by / ended before the row's tic (``examined_entries``
        # without a per-segment pass).
        self._ids: list[str] = []
        self._rect = np.full((2, 1, db.space.ndim, 1), np.inf)
        self._rect[1] = -np.inf
        self._segs = np.zeros((2, 1), dtype=np.intp)
        self._t_base = self._t_hi = np.empty(0, dtype=np.intp)
        self._row_ptr = np.ones(1, dtype=np.intp)
        self.update_many(obj.object_id for obj in db)

    def _block(self, objects: list[list]) -> tuple:
        """The table rows of several objects' diamond lists, laid end to
        end in the given order: ``(t_base, n_rows, rect, segs)``, ``rect``
        of shape ``(2, slots, d, rows)`` and ``segs`` ``(2, rows)`` (see
        ``__init__``), built from every diamond's per-tic MBR rows at once.
        """
        diamonds = [d for ds in objects for d in ds]
        lo, hi = bound_tics(diamonds, self.db.space)
        owner = np.repeat(np.arange(len(objects)), [len(ds) for ds in objects])
        seg_t0 = np.asarray([d.t_start for d in diamonds], dtype=np.intp)
        seg_t1 = np.asarray([d.t_end for d in diamonds], dtype=np.intp)
        firsts = np.cumsum([0] + [len(ds) for ds in objects])[:-1]
        t_base = np.minimum.reduceat(seg_t0, firsts) if diamonds else seg_t0
        n_rows = (np.maximum.reduceat(seg_t1, firsts) if diamonds else seg_t1) - t_base + 1
        obj_row = np.cumsum(n_rows) - n_rows
        # Every (diamond, tic) rect with its block row; a rect's slot is its
        # rank among the rects of its row.
        seg_row = obj_row[owner] + seg_t0 - t_base[owner]
        n_tics = seg_t1 - seg_t0 + 1
        rect_row = np.repeat(seg_row - (np.cumsum(n_tics) - n_tics), n_tics)
        rect_row += np.arange(rect_row.size)
        order = np.argsort(rect_row, kind="stable")
        rect_row = rect_row[order]
        slot = np.arange(rect_row.size) - np.searchsorted(rect_row, rect_row)
        total = int(n_rows.sum())
        depth = np.bincount(rect_row, minlength=total)
        rect = np.full((2, int(depth.max(initial=1)), self.db.space.ndim, total), np.inf)
        rect[1] = -np.inf
        rect[0, slot, :, rect_row] = lo[order]
        rect[1, slot, :, rect_row] = hi[order]
        for s in range(1, rect.shape[1]):
            unused = depth <= s
            rect[:, s][..., unused] = rect[:, 0][..., unused]
        # Per-object running counts: a global cumsum less each object's
        # count before its first row.  A segment ending at an object's last
        # tic ends before no row of it.
        end_row = seg_row + n_tics
        inside = end_row < (obj_row + n_rows)[owner]
        segs = np.empty((2, total), dtype=np.intp)
        for i, rows in enumerate((seg_row, end_row[inside])):
            running = np.cumsum(np.bincount(rows, minlength=total))
            segs[i] = running - np.repeat(np.append(0, running)[obj_row], n_rows)
        return t_base, n_rows, rect, segs

    # ------------------------------------------------------------------
    # incremental maintenance (streaming ingest)
    # ------------------------------------------------------------------
    def _position(self, object_id: str) -> tuple[int, bool]:
        """Where ``object_id`` sorts among the indexed ids, and whether it
        is one of them."""
        pos = bisect_left(self._ids, object_id)
        return pos, pos < len(self._ids) and self._ids[pos] == object_id

    def update_object(self, object_id: str) -> None:
        """Re-index one object after a database mutation — added, observed
        or removed: :meth:`update_many` with one id."""
        self.update_many([object_id])

    def update_many(self, object_ids: Iterable[str]) -> None:
        """Re-index objects after database mutations — added, observed or
        removed — in one pass.

        The diamonds the objects lack are derived together
        (:func:`~repro.trajectory.trajectory.derive_diamonds`), and the
        objects' rows of the bound table are rewritten from their per-tic
        MBR rows: in place when every object is indexed and keeps its
        extent (as after interior fixes), else by one concatenation of the
        untouched rows and the new ones; a removed object's rows go.
        Pruning over the updated table is exactly what a freshly built one
        would compute (the oracle tests assert this); this is the streaming
        path's alternative to rebuilding the index per tick.

        An object whose observations contradict its chain keeps its rows,
        and its "empty diamond" ``ValueError`` (the first in id order) is
        raised once its peers are written.
        """
        ids = sorted({str(oid) for oid in object_ids})
        objects = [self.db.get(oid) for oid in ids if oid in self.db]
        derived = derive_diamonds(objects)
        failed = [d for d in derived if isinstance(d, ValueError)]
        written = {
            obj.object_id: d for obj, d in zip(objects, derived) if not isinstance(d, ValueError)
        }
        places = {oid: self._position(oid) for oid in ids}
        # Written ids, and removed ones the table holds rows of.
        touched = [oid for oid in ids if oid in written or (places[oid][1] and oid not in self.db)]
        t_base, n_rows, rect, segs = self._block(list(written.values()))
        depth = max(self._rect.shape[1], rect.shape[1])
        rect = _deepen(rect, depth)
        pos = np.asarray([places[oid][0] for oid in touched], dtype=np.intp)
        if (
            len(written) == len(touched)
            and all(places[oid][1] for oid in touched)
            and depth == self._rect.shape[1]
            and np.array_equal(self._t_base[pos], t_base)
            and np.array_equal(self._row_ptr[pos + 1] - self._row_ptr[pos], n_rows)
        ):
            rows = np.repeat(self._row_ptr[pos] - (np.cumsum(n_rows) - n_rows), n_rows)
            rows += np.arange(rows.size)
            self._rect[..., rows] = rect
            self._segs[:, rows] = segs
        elif touched:
            old_rect = _deepen(self._rect, depth)
            self._splice(touched, places, written, old_rect, t_base, n_rows, rect, segs)
        if failed:
            raise failed[0]

    def _splice(self, touched, places, written, old_rect, t_base, n_rows, rect, segs) -> None:
        """Rebuild the table from ``old_rect`` (the table's rects) with the
        ``touched`` ids' rows replaced by the block's (``written`` ones) or
        dropped: one concatenation of the untouched runs and the block's
        objects, in id order."""
        ptr = self._row_ptr
        block_row = np.cumsum(n_rows) - n_rows
        rects, seg_parts, ids, bases, lengths = [], [], [], [], []
        obj, row, j = 0, 0, 0  # next old object, next old row, next block object
        for oid in touched:
            pos, known = places[oid]
            rects.append(old_rect[..., row : ptr[pos]])
            seg_parts.append(self._segs[:, row : ptr[pos]])
            ids += self._ids[obj:pos]
            bases.append(self._t_base[obj:pos])
            lengths.append(ptr[obj + 1 : pos + 1] - ptr[obj:pos])
            if oid in written:
                lo, hi = block_row[j], block_row[j] + n_rows[j]
                rects.append(rect[..., lo:hi])
                seg_parts.append(segs[:, lo:hi])
                ids.append(oid)
                bases.append(t_base[j : j + 1])
                lengths.append(n_rows[j : j + 1])
                j += 1
            obj = pos + known
            row = ptr[obj]
        rects.append(old_rect[..., row:])
        seg_parts.append(self._segs[:, row:])
        ids += self._ids[obj:]
        bases.append(self._t_base[obj:])
        lengths.append(ptr[obj + 1 :] - ptr[obj:-1])
        self._rect = np.concatenate(rects, axis=-1)
        self._segs = np.concatenate(seg_parts, axis=-1)
        self._ids = ids
        self._t_base = np.concatenate(bases)
        n_rows = np.concatenate(lengths)
        self._t_hi = self._t_base + n_rows - 1
        self._row_ptr = np.concatenate(([1], 1 + np.cumsum(n_rows)))

    def __contains__(self, object_id: str) -> bool:
        return self._position(str(object_id))[1]

    def __len__(self) -> int:
        """Indexed segments: those each object's last tic has seen begin."""
        return int(self._segs[0, self._row_ptr[1:] - 1].sum())

    # ------------------------------------------------------------------
    def prune(self, q_coords: np.ndarray, times: np.ndarray, k: int = 1) -> PruningResult:
        """Compute candidates and influence objects for a PNN query —
        :meth:`prune_many` with one query.

        Parameters
        ----------
        q_coords:
            ``(len(times), d)`` query locations — one per query time
            (constant rows for a query state).
        times:
            Unique query times ``T``.
        k:
            NN cardinality; pruning uses the k-th smallest ``dmax`` so that
            kNN queries (Section 8) remain correct.
        """
        return self.prune_many(np.asarray(q_coords, dtype=float)[None], times, k)[0]

    def prune_many(
        self, q_coords: np.ndarray, times: np.ndarray, k: int = 1
    ) -> list[PruningResult]:
        """The § 6 filter for ``Q`` queries sharing one time set.

        ``q_coords`` is ``(Q, len(times), d)``.  One pass over the bound
        table's rows inside the window: per (object, tic) the covering
        diamonds' ``mindist``/``maxdist`` to every query's location
        (squares accumulated dimension by dimension — the order ``np.sum``
        adds a short axis in), the k-th smallest ``dmax`` per query and
        tic, and the classification of all ``Q`` at once.  Result ``i`` is
        bit-identical to the per-entry R*-tree loop of ``tests/oracles/``
        for ``q_coords[i]``: max/min accumulation is order-independent, the
        elementwise arithmetic is the same, and a segment MBR's bound never
        beats the per-tic bound of the same diamond.
        """
        times = np.asarray(times, dtype=np.intp)
        q = check_query_coords(q_coords, times, self.db.space.ndim)
        if q.ndim != 3:
            raise ValueError(f"expected (Q, len(times), d) coordinates, got {q.shape}")
        t_lo, t_hi = int(times.min()), int(times.max())
        # Objects whose lifespan meets the window's hull, and how many of
        # their segments do: those begun by its end less those ended
        # before its start.
        sel = np.flatnonzero((self._t_base <= t_hi) & (self._t_hi >= t_lo))
        base, row0 = self._t_base[sel], self._row_ptr[sel]
        begun = self._segs[0, np.minimum(t_hi, self._t_hi[sel]) - base + row0]
        ended = self._segs[1, np.maximum(t_lo, base) - base + row0]
        examined = int((begun - ended).sum())
        self._count_pass(examined)

        rel = times - base[:, None]
        in_span = (rel >= 0) & (times <= self._t_hi[sel, None])
        rows = np.where(in_span, rel + row0[:, None], 0)
        # Whether a diamond covers (object, tic) is the table's to say (the
        # empty rect where none does); objects in the window's hull but at
        # none of its (sparse) times drop out before any distance is taken.
        alive = np.isfinite(self._rect[0, 0, 0][rows])
        present = alive.any(axis=1)
        sel, rows, alive = sel[present], rows[present].ravel(), alive[present]
        if sel.size == 0 or len(q) == 0:
            nowhere = np.full(times.size, np.inf)
            return [PruningResult([], [], nowhere.copy(), examined) for _ in q]
        # Work on (Q, O·T) arrays — numpy's inner loop then runs over every
        # (object, tic) pair, not over one window's handful of tics.
        points = np.tile(np.moveaxis(q, -1, 0), (1, 1, sel.size))  # (d, Q, O·T)
        dmin = dmax = None
        for slot_lo, slot_hi in zip(*self._rect):
            near = far = None
            for j in range(q.shape[-1]):
                p = points[j]
                below = slot_lo[j][rows] - p
                above = p - slot_hi[j][rows]
                gap = np.maximum(below, above)
                np.maximum(gap, 0.0, out=gap)
                # |p - lo| and |hi - p|: negation is exact.
                reach = np.maximum(
                    np.abs(below, out=below), np.abs(above, out=above), out=below
                )
                gap *= gap
                reach *= reach
                near = gap if near is None else np.add(near, gap, out=near)
                far = reach if far is None else np.add(far, reach, out=far)
            np.sqrt(near, out=near)
            np.sqrt(far, out=far)
            dmin = near if dmin is None else np.maximum(dmin, near, out=dmin)
            dmax = far if dmax is None else np.minimum(dmax, far, out=dmax)
        shape = (len(q), sel.size, times.size)
        dmin, dmax = dmin.reshape(shape), dmax.reshape(shape)

        ids = [self._ids[i] for i in sel]
        # The k-th smallest dmax per (query, tic); +inf by itself wherever
        # fewer than k objects are alive.
        if k == 1:
            prune_dist = dmax.min(axis=1)
        elif k <= sel.size:
            prune_dist = np.partition(dmax, k - 1, axis=1)[:, k - 1]
        else:
            prune_dist = np.full((len(q), times.size), np.inf)
        within = dmin <= prune_dist[:, None, :]
        influencer = (alive & within).any(axis=2)
        candidate = alive.all(axis=1) & within.all(axis=2)
        return [
            PruningResult(
                candidates=[ids[i] for i in np.flatnonzero(candidate[n])],
                influencers=[ids[i] for i in np.flatnonzero(influencer[n])],
                prune_distances=prune_dist[n],
                examined_entries=examined,
                bounds=(ids, dmin[n], dmax[n]),
            )
            for n in range(len(q))
        ]

    def _count_pass(self, examined: int) -> None:
        """Feed the metrics registry after one filter pass."""
        metrics = self.metrics
        if self._counters is None or self._counters[0] is not metrics:
            calls = metrics.counter(
                "ust_prune_calls_total", help="Filter-stage prune passes over the UST-tree."
            )
            entries = metrics.counter(
                "ust_examined_entries_total", help="Index entries examined across prune passes."
            )
            self._counters = (metrics, calls, entries)
        self._counters[1].inc()
        self._counters[2].inc(examined)
