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
(object, tic) holding the MBRs of the diamonds covering that tic, patched
by :meth:`USTTree.update_object` and never rebuilt inside a query.  A
diamond's per-tic MBR lies inside its segment MBR and ``mindist`` /
``maxdist`` are monotone under containment, so the per-tic bounds alone
*are* the filter's bounds — no segment-level pass precedes them.  The
paper's index, an R\\*-tree over per-segment (x, y, t) boxes walked entry
by entry, is this module's oracle and lives in ``tests/oracles/``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..trajectory.database import TrajectoryDatabase

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


def _splice(arr: np.ndarray, start: int, stop: int, block: np.ndarray) -> np.ndarray:
    """``arr`` with ``[start, stop)`` of its last axis replaced by ``block``
    (in place when the extent is unchanged)."""
    if block.shape[-1] == stop - start:
        arr[..., start:stop] = block
        return arr
    return np.concatenate((arr[..., :start], block, arr[..., stop:]), axis=-1)


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
        # max/min accumulation cannot tell from applying it once.  A tic no
        # diamond covers holds the empty rect (lo = +inf, hi = -inf), whose
        # dmin and dmax are +inf for any finite point; so does row 0, where
        # the scan sends every (object, tic) pair outside the object's
        # span — it needs no mask.  ``_segs[0, row]`` / ``_segs[1, row]``
        # count the object's segments begun by / ended before the row's tic
        # (``examined_entries`` without a per-segment pass).
        self._ids: list[str] = []
        self._rect = np.full((2, 1, db.space.ndim, 1), np.inf)
        self._rect[1] = -np.inf
        self._segs = np.zeros((2, 1), dtype=np.intp)
        self._t_base = self._t_hi = np.empty(0, dtype=np.intp)
        self._row_ptr = np.ones(1, dtype=np.intp)
        ids = sorted(obj.object_id for obj in db)
        self._replace_rows(0, 0, {oid: db.diamonds_of(oid) for oid in ids})

    def _object_block(self, diamonds) -> tuple:
        """One object's table rows: ``(t_base, rect, segs)``, ``rect`` of
        shape ``(2, slots, d, tics)`` and ``segs`` ``(2, tics)`` (see
        ``__init__``).  Which covering diamond lands in which slot is
        irrelevant: each yields a valid bound and the scan keeps the
        tightest of each kind across all slots.
        """
        space = self.db.space
        seg_t0 = np.asarray([d.t_start for d in diamonds], dtype=np.intp)
        seg_t1 = np.asarray([d.t_end for d in diamonds], dtype=np.intp)
        t_base = int(seg_t0.min())
        length = int(seg_t1.max()) - t_base + 1
        # Every (diamond, tic) rect, ordered by tic; a rect's slot is its
        # rank among the rects of its tic.
        tic = np.concatenate([np.arange(a, b + 1) for a, b in zip(seg_t0, seg_t1)])
        order = np.argsort(tic, kind="stable")
        tic = tic[order] - t_base
        slot = np.arange(tic.size) - np.searchsorted(tic, tic)
        depth = np.bincount(tic, minlength=length)
        rect = np.full((2, int(depth.max()), space.ndim, length), np.inf)
        rect[1] = -np.inf
        bounds = [np.stack(d.mbr_arrays(space), axis=1) for d in diamonds]
        rect[:, slot, :, tic] = np.concatenate(bounds)[order]
        for s in range(1, rect.shape[1]):
            unused = depth <= s
            rect[:, s][..., unused] = rect[:, 0][..., unused]
        begun = np.cumsum(np.bincount(seg_t0 - t_base, minlength=length))
        ended = np.cumsum(np.bincount(seg_t1 - t_base + 1, minlength=length + 1))
        return t_base, rect, np.stack((begun, ended[:length]))

    def _replace_rows(self, pos: int, stop: int, objects: dict) -> None:
        """Objects ``pos:stop`` of the sorted id list become ``objects``
        (``{id: diamonds}``, sorted), with the table rows their diamonds say."""
        blocks = [self._object_block(diamonds) for diamonds in objects.values()]
        depth = max([self._rect.shape[1]] + [rect.shape[1] for _, rect, _ in blocks])

        def deepen(rect: np.ndarray) -> np.ndarray:
            extra = depth - rect.shape[1]  # missing slots repeat slot 0
            return np.concatenate((rect, *[rect[:, :1]] * extra), axis=1) if extra else rect

        self._rect = deepen(self._rect)
        row, row_stop = self._row_ptr[pos], self._row_ptr[stop]
        rects = [self._rect[..., :0]] + [deepen(rect) for _, rect, _ in blocks]
        self._rect = _splice(self._rect, row, row_stop, np.concatenate(rects, axis=-1))
        segs = [self._segs[:, :0]] + [segs for _, _, segs in blocks]
        self._segs = _splice(self._segs, row, row_stop, np.concatenate(segs, axis=-1))
        self._ids[pos:stop] = objects
        t_base = np.asarray([b[0] for b in blocks], dtype=np.intp)
        n_rows = np.asarray([b[1].shape[-1] for b in blocks], dtype=np.intp)
        self._t_base = _splice(self._t_base, pos, stop, t_base)
        n_rows = _splice(np.diff(self._row_ptr), pos, stop, n_rows)
        self._t_hi = self._t_base + n_rows - 1
        self._row_ptr = np.concatenate(([1], 1 + np.cumsum(n_rows)))

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
        or removed.

        Rewrites the object's rows of the bound table from its current
        diamonds — none when the object is gone, in place when its
        lifespan kept its extent (as after an interior fix).  Pruning over
        the updated table is exactly what a freshly built one would
        compute: it holds the same rows (the oracle tests assert this).
        This is the streaming path's alternative to rebuilding the index
        per event.
        """
        object_id = str(object_id)
        diamonds = self.db.diamonds_of(object_id) if object_id in self.db else ()
        pos, known = self._position(object_id)
        self._replace_rows(pos, pos + known, {object_id: diamonds} if diamonds else {})

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
