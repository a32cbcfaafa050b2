"""Per-object possible-world cache: window-restricted, forward-extendable.

Refinement (Section 5) samples every influence object into possible worlds.
A continuous-monitoring workload — P∀NN/P∃NN/PCNN over a sliding window —
re-refines largely the same objects query after query; re-sampling them from
scratch each time wastes the dominant share of query cost.  Worse, sampling
each object's *full adapted span* when the query window covers a fraction of
it (the moving-NN setting) wastes most of each draw: a batch asking for 10
of an object's 80 tics pays for 80.

The :class:`WorldCache` therefore stores **growable window segments**.  Each
entry is a :class:`WorldSegment` — an ``(n_samples, width)`` state matrix
(world axis contiguous: the sampler's own tic-major buffer, transposed)
anchored at ``t_first`` (the earliest time any batch requested), plus the
per-object RNG stream that produced it.  Lookups pass the window
``[t_lo, t_hi]`` they need and fall into exactly one of three cases:

* **hit** — the segment already covers the window; slice and return.
* **partial hit** — the segment covers ``t_lo`` but ends before ``t_hi``;
  the cached paths are *forward-extended*: the sampler resumes from the
  segment's final state column, consuming the stored RNG stream exactly
  where the original draw left it.  Because resumed draws consume no
  initial variate, the grown segment is **bit-identical** to what a single
  one-shot draw of the union window would have produced — worlds within a
  held epoch never depend on how requests were batched.
* **miss** — no segment, or the request starts *before* the cached anchor.
  Backward extension is unsound: sampling ``o(t_lo..t_first-1)`` afresh and
  splicing it onto the cached suffix would ignore the posterior coupling
  across the junction *and* could never be bit-reproduced by a one-shot
  draw (the one-shot stream spends its variates on the early columns
  first).  A backward request therefore **redraws the whole union window**
  ``[t_lo, max(t_hi, old end)]`` from a fresh per-object stream — exactly
  the worlds an engine would have drawn had that window been requested
  first, keeping replay determinism intact.

Entries are keyed by ``(object_id, n_samples)`` and stamped with
an opaque ``stamp`` (the engine uses ``(invalidation token, draw_epoch)``):

* the **invalidation token** flushes every world at once when the engine
  cannot tell which objects a database mutation touched (stale worlds
  would silently answer queries against a database that no longer
  exists); when it *can* tell — the streaming ingest path — it keeps the
  token and calls :meth:`WorldCache.invalidate_objects` instead, dropping
  only the mutated objects' segments;
* the **draw epoch** is the engine's statistical refresh knob — worlds are
  deterministic within an epoch (queries against the same epoch see the
  same worlds, making results across a batch exactly consistent) and
  independently redrawn across epochs.

``hits``/``partial_hits``/``misses`` are the registry counters
``world_cache_{hits,partial_hits,misses}_total`` — cumulative and
disjoint: every lookup increments exactly one of them.  A miss is exactly
one full sampler invocation and a partial hit exactly one (cheaper)
resumed invocation — the batched-query tests assert on both.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..markov.compiled import take_tics
from ..obs.metrics import MetricsRegistry

__all__ = ["WorldSegment", "WorldCache"]


class WorldSegment:
    """One object's sampled worlds over a contiguous, growable time window.

    ``states`` has shape ``(n_samples, t_last - t_first + 1)``; ``rng`` is
    the generator that produced it, parked exactly after the draw of the
    last column so a forward extension continues the same stream.

    The array is held exactly as the sampler hands it out — for a fresh
    draw a view of the sweep buffer, no copy — i.e. as the transpose of a
    tic-major ``(width, n_samples)`` block: the world axis is the
    contiguous one, ``states[:, -1]`` is a contiguous row, :meth:`extend`
    appends rows and :meth:`slice` answers in the same order.
    """

    __slots__ = ("t_first", "states", "rng")

    def __init__(
        self, t_first: int, states: np.ndarray, rng: np.random.Generator
    ) -> None:
        self.t_first = int(t_first)
        self.states = states
        self.rng = rng

    @property
    def t_last(self) -> int:
        return self.t_first + self.states.shape[1] - 1

    def slice(self, times: np.ndarray) -> np.ndarray:
        """State columns at the requested (covered, sorted) times — a view
        for a contiguous request (the common batched shape slices whole
        windows)."""
        return take_tics(self.states, times - self.t_first)

    def extend(self, new_cols: np.ndarray) -> None:
        """Append the columns a resumed draw grew, as tic-major rows."""
        self.states = np.concatenate([self.states.T, new_cols.T]).T


class WorldCache:
    """Maps ``(object_id, n_samples)`` to growable world segments.

    The cache is stamped with an opaque ``stamp`` (the engine uses
    ``(invalidation token, draw_epoch)``); storing or reading with a
    different stamp drops every entry first, so stale worlds can never leak
    across wholesale invalidations or epoch advances.

    **Per-object invalidation contract** (the streaming ingest path):
    :meth:`invalidate_objects` drops exactly the named objects' segments —
    every other entry stays **bit-identical**, byte for byte, including its
    parked RNG stream, so unchanged objects' worlds (and any forward
    extension of them) are exactly what they would have been had the
    invalidation never happened.  An ingest that mutates objects ``M``
    therefore flushes only ``M``; the engine keeps its stamp unchanged and
    the next lookup redraws only ``M`` (fresh per-object streams, new
    posterior models) while the rest of the epoch's worlds are reused.
    """

    def __init__(self, capacity: int = 4096, metrics: MetricsRegistry | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._entries: dict[tuple, WorldSegment] = {}
        self._stamp: tuple | None = None
        #: Maximum live entries; beyond it the oldest entry is evicted
        #: (bounding memory at paper scale — one (n_samples × width) matrix
        #: per object is large).  An evicted object touched again in the
        #: same epoch restarts its deterministic per-(object, epoch) stream
        #: at the *current* request window; the redraw is exactly
        #: distributed but no longer bit-identical to the evicted worlds,
        #: so size the capacity above the per-batch working set.
        self.capacity = int(capacity)
        metrics = metrics if metrics is not None else MetricsRegistry()
        #: Cumulative, disjoint lookup counters of ``metrics`` (never reset
        #: by invalidation): ``misses`` counts full window draws, ``hits``
        #: fully covered lookups, ``partial_hits`` forward extensions of a
        #: cached prefix.
        count = metrics.counter
        self.hits = count("world_cache_hits_total", help="Lookups served from cache.")
        self.partial_hits = count(
            "world_cache_partial_hits_total", help="Lookups extending a cached prefix."
        )
        self.misses = count("world_cache_misses_total", help="Lookups drawn afresh.")

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def stamp(self) -> tuple | None:
        return self._stamp

    def clear(self) -> None:
        """Drop all cached worlds (counters are kept)."""
        self._entries.clear()

    def invalidate_objects(self, object_ids) -> int:
        """Drop exactly the named objects' segments; returns the count.

        Every key whose object id is in ``object_ids`` is removed — across
        all ``n_samples`` variants — and *nothing else is
        touched*: surviving segments keep their arrays and parked RNG
        streams bit-identical (the per-object invalidation contract the
        streaming ingest path relies on; see the class docstring).  The
        stamp and the cumulative counters are unchanged.
        """
        ids = {str(oid) for oid in object_ids}
        doomed = [key for key in self._entries if key[0] in ids]
        for key in doomed:
            del self._entries[key]
        return len(doomed)

    def peek(self, key: tuple) -> WorldSegment | None:
        """The live segment for ``key`` (no counters touched; tests/metrics)."""
        return self._entries.get(key)

    def _sync(self, stamp: tuple) -> None:
        if stamp != self._stamp:
            self._entries.clear()
            self._stamp = stamp

    def states_for(
        self,
        key: tuple,
        stamp: tuple,
        t_lo: int,
        t_hi: int,
        sampler: Callable[[int, int], tuple[np.ndarray, np.random.Generator]],
        extender: Callable[
            [np.random.Generator, np.ndarray, int, int], np.ndarray
        ],
    ) -> WorldSegment:
        """Return a segment for ``key`` covering ``[t_lo, t_hi]`` — the
        one-member case of :meth:`states_for_many`.

        ``sampler(lo, hi)`` draws a fresh ``(states, rng)`` over a window
        (a *miss*); ``extender(rng, start_states, t_from, t_hi)`` resumes
        the stored stream from the segment's last column and returns the
        new columns for ``(t_from, t_hi]`` (a *partial hit*); a *hit* runs
        neither.
        """

        def bulk(fresh: list, extend: list):
            return (
                [sampler(lo, hi) for _, lo, hi in fresh],
                [extender(rng, last, at, hi) for _, rng, last, at, hi in extend],
            )

        return self.states_for_many([(key, t_lo, t_hi)], stamp, bulk)[0]

    def states_for_many(
        self,
        items: list[tuple[tuple, int, int]],
        stamp: tuple,
        bulk_sampler: Callable[[list, list], tuple[list, list]],
    ) -> list[WorldSegment]:
        """The cache lookup: one fused draw serves many members.

        ``items`` is a list of ``(key, t_lo, t_hi)`` lookups (keys must be
        distinct — one entry per object).  Every member is classified on
        its own (hit / partial hit / miss, a backward request — one
        starting before the cached anchor — falling back to a fresh draw
        of the union window), exactly one counter incremented each, and
        all the work is handed to ``bulk_sampler(fresh, extend)`` in a
        single call so the engine can fuse it into one arena pass:

        * ``fresh`` — ``(position, t_lo, t_hi)`` triples needing a full
          draw; the sampler returns a matching list of ``(states, rng)``.
        * ``extend`` — ``(position, rng, last_states, t_from, t_hi)``
          tuples resuming a cached segment's stream; the sampler returns a
          matching list of new-column arrays for ``(t_from, t_hi]``.

        Because each member's draw consumes only its own per-object RNG
        stream, the result is bit-identical to issuing the member lookups
        one at a time.  Within one ``(key, stamp)`` residency the covered
        window only grows — the at-most-one-full-draw-per-epoch guarantee
        ``evaluate_many`` relies on (exceeded only past :attr:`capacity`,
        where the redraw restarts at the current window).
        """
        self._sync(stamp)
        if len({key for key, _, _ in items}) != len(items):
            raise ValueError("states_for_many requires distinct keys per call")
        segments: list[WorldSegment | None] = [None] * len(items)
        fresh: list[tuple[int, int, int]] = []
        extend: list[tuple[int, np.random.Generator, np.ndarray, int, int]] = []
        # Classification replays the *sequential* cache evolution exactly:
        # a miss inserts a placeholder segment immediately (evicting the
        # oldest entry at capacity, just as the sequential insert would),
        # so later members classify against the same cache state they
        # would have seen one lookup at a time — bit-identity holds even
        # when a batch pushes the cache over capacity.
        placeholders: dict[tuple, WorldSegment] = {}
        for pos, (key, t_lo, t_hi) in enumerate(items):
            seg = self._entries.get(key)
            if seg is not None and t_lo < seg.t_first:
                t_hi = max(t_hi, seg.t_last)
                del self._entries[key]
                seg = None
            if seg is None:
                self.misses.inc()
                fresh.append((pos, t_lo, t_hi))
                placeholder = WorldSegment(t_lo, np.empty((0, 0), dtype=np.intp), None)
                placeholders[key] = placeholder
                if len(self._entries) >= self.capacity:
                    self._entries.pop(next(iter(self._entries)))
                self._entries[key] = placeholder
            elif t_hi > seg.t_last:
                self.partial_hits.inc()
                extend.append((pos, seg.rng, seg.states[:, -1], seg.t_last, t_hi))
                segments[pos] = seg
            else:
                self.hits.inc()
                segments[pos] = seg
        if fresh or extend:
            try:
                fresh_results, extend_results = bulk_sampler(fresh, extend)
            except BaseException:
                # A draw that failed (one member's observations contradict
                # its chain) must not leave empty placeholders behind as
                # cached worlds.
                for key, placeholder in placeholders.items():
                    if self._entries.get(key) is placeholder:
                        del self._entries[key]
                raise
            for (pos, t_lo, _), (states, rng) in zip(fresh, fresh_results):
                key = items[pos][0]
                seg = placeholders[key]
                seg.states, seg.rng = states, rng
                segments[pos] = seg
                # An evicted placeholder stays out of the cache — exactly
                # the sequential outcome (drawn, returned, then evicted).
            for (pos, *_), new_cols in zip(extend, extend_results):
                seg = segments[pos]
                assert seg is not None
                seg.extend(new_cols)
        return segments  # type: ignore[return-value]
