"""The staged PNN query engine (Sections 4-6).

One pipeline serves every query: :meth:`QueryEngine.evaluate` runs four
explicit, inspectable stages —

1. **plan** — resolve the request's estimator, world budget and precision
   into a :class:`~repro.core.planner.QueryPlan` (no randomness consumed);
2. **filter** — the UST-tree's dmin/dmax pruning yields candidates ``C(q)``
   and influence objects ``I(q)`` (Section 6);
3. **estimate** — a pluggable strategy (:mod:`repro.core.estimators`)
   produces per-object probabilities: Monte-Carlo world sampling
   (Section 5), exact enumeration, PTIME Lemma 2 bounds, or the hybrid
   bounds-then-sample fast path;
4. **threshold** — compare against τ and assemble the result, attaching an
   :class:`~repro.core.results.EvaluationReport` (stage timings, pruning
   and cache accounting, per-object estimator provenance).

:meth:`QueryEngine.explain` runs stages 1-2 only and returns the plan plus
a report skeleton — the observability hook for serving layers.  The
classic entry points (``forall_nn``, ``exists_nn``, ``continuous_nn``,
``nn_probabilities``) are thin shims over ``evaluate()`` with unchanged
signatures and bit-identical seeded results.

Refinement draws worlds through a per-object :class:`~repro.core.worlds.
WorldCache`: each object is sampled at most once per *draw epoch* (with a
per-object RNG derived from the engine seed, the epoch and the object id,
so worlds do not depend on which other objects a query refines) — and, by
default, only over the **window the batch actually requests** rather than
the object's full adapted span.  A batch first computes the union of its
requests' time sets; every object is then drawn over that union clamped to
its span, and a later batch that holds the epoch and asks for later tics
*forward-extends* the cached paths by resuming the stored RNG stream
(bit-identical to one-shot sampling of the union window; see
:mod:`repro.core.worlds` for the soundness argument and the backward-
request fallback).  Standalone queries advance the epoch on entry — they
see fresh, independent worlds exactly as before — while :meth:`QueryEngine.
evaluate_many` holds one epoch across a whole batch, so sliding-window
monitoring re-samples each object at most once instead of once per query.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from ..markov import native as native_tier
from ..markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from ..markov.compiled import take_tics
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import NULL_TRACER
from ..spatial.ust_tree import PruningResult, USTTree, check_query_coords
from ..trajectory.database import TrajectoryDatabase
from ..trajectory.trajectory import UncertainObject, adapt_objects
from .estimators import EstimationContext, EstimateOutcome, make_estimator
from .planner import Explanation, QueryPlan, build_plan
from .queries import Query, QueryRequest, check_count, normalize_times, union_window
from .refine import RefineCache, RefineJob, gather_distances, reverse_tensors
from .results import (
    EvaluationReport,
    ObjectProbability,
    PCNNResult,
    QueryResult,
    RawProbabilities,
    ReverseNNResult,
)
from .worlds import WorldCache

__all__ = ["QueryEngine"]


class QueryEngine:
    """Evaluates P∃NNQ, P∀NNQ, PCNNQ (and their kNN forms) on a database.

    Parameters
    ----------
    db:
        The uncertain trajectory database.
    n_samples:
        Possible worlds sampled per query, an integer ``>= 1`` (the paper
        uses 10k; Hoeffding's inequality — :mod:`repro.analysis.hoeffding`
        — bounds the induced estimation error).
    seed / rng:
        Source of randomness; pass exactly one.
    use_pruning:
        Toggle UST-tree filtering (ablation hook).  Without pruning every
        object overlapping ``T`` is refined.
    backend:
        Sampling backend for refinement: ``"native"`` (the C kernel tier
        of :mod:`repro.markov.native` — fused sweep, in-kernel seeding,
        distance gather) or ``"compiled"`` (the same arena swept by
        numpy).  The default ``None`` resolves once, here, to
        ``"native"`` where :func:`repro.markov.native.available` and to
        ``"compiled"`` otherwise (no cffi or C compiler, or
        ``REPRO_DISABLE_NATIVE`` set); :attr:`backend` holds the resolved
        value.  An explicit ``"native"`` raises a descriptive error when
        the tier cannot load.  Both yield bit-identical worlds for one seed.
    reuse_worlds:
        When ``True``, standalone queries do *not* advance the draw epoch,
        so consecutive queries share sampled worlds until
        :meth:`new_draw_epoch` is called explicitly.  The default preserves
        the classic semantics: every standalone query sees fresh worlds.
        One caveat, since cached worlds cover only the windows requested
        so far: a held-epoch request reaching
        *before* an object's cached window redraws that object's worlds
        over the union window (backward extension is unsound; see
        :mod:`repro.core.worlds`), so estimates for the overlap can move
        without an explicit refresh.  Forward-growing request sequences —
        the sliding-window monitoring pattern — never redraw.
    refine_cache_size:
        Capacity (entries, an integer ``>= 0``) of the
        :class:`~repro.core.refine.RefineCache` serving *shared-world*
        (batched) evaluations.  Each entry holds one ``(objects, times,
        worlds)`` block — what :meth:`distance_tensor` hands out
        transposed, or the sampled states behind
        :meth:`reverse_distance_tensors` — keyed by its
        :attr:`RefineJob.key <repro.core.refine.RefineJob.key>`; a standing
        subscription re-evaluated over held worlds recomputes only the
        *columns* of objects the database mutated since the block was last
        current (:meth:`TrajectoryDatabase.changed_since`), bit-identically
        to a full recompute (per-object RNGs do not depend on which other
        objects a call refines).  ``0`` disables the cache.
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        n_samples: int = 1000,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        use_pruning: bool = True,
        ust_tree: USTTree | None = None,
        backend: str | None = None,
        reuse_worlds: bool = False,
        refine_cache_size: int = 64,
        tracer=None,
        metrics=None,
        slow_log=None,
    ) -> None:
        if rng is not None and seed is not None:
            raise ValueError("pass either seed or rng, not both")
        if backend is None:
            backend = "native" if native_tier.available() else "compiled"
        elif backend not in ("compiled", "native"):
            raise ValueError(f"unknown sampling backend {backend!r}")
        elif backend == "native":
            native_tier.require_native()
        self.db = db
        self.n_samples = check_count("n_samples", n_samples)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.use_pruning = use_pruning
        self.backend = backend
        self.reuse_worlds = reuse_worlds
        self.refine_cache_size = check_count("refine_cache_size", refine_cache_size, minimum=0)
        #: Telemetry (see :mod:`repro.obs`): the tracer times the pipeline
        #: stages — ``stage_seconds`` is derived from its span durations,
        #: so :data:`NULL_TRACER` (the default) still times spans, it just
        #: retains nothing.  ``metrics`` is the registry every count of
        #: this engine lives in — its own unless one is passed, which only
        #: names the registry to expose.  ``slow_log`` is an optional feed.
        #: None of the three ever touches RNG state.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_log = slow_log
        self._refine_cache = RefineCache(db, self.refine_cache_size)
        #: Estimate-stage reuse accounting (per-tick deltas reported by the
        #: streaming monitor): whole-tensor cache hits/misses and the
        #: per-object columns served from cache vs recomputed.  Like every
        #: count below, each is a handle to a counter of ``metrics``.
        count = metrics.counter
        self.estimate_cache_hits = count("estimate_cache_hits_total", help="Refine-cache hits.")
        self.estimate_cache_misses = count("estimate_cache_misses_total", help="Refine-cache misses.")
        self.estimate_columns_reused = count(
            "estimate_columns_reused_total", help="Refine-cache columns served unchanged."
        )
        self.estimate_columns_refreshed = count(
            "estimate_columns_refreshed_total", help="Refine-cache columns recomputed."
        )
        #: Cumulative invalidation accounting: full index rebuilds,
        #: per-object incremental index updates, and world-cache segments
        #: dropped by selective invalidation.
        self.index_rebuilds = count("index_rebuilds_total", help="Full UST-tree builds.")
        self.index_updates = count("index_updates_total", help="Per-object UST-tree updates.")
        self.worlds_invalidated = count(
            "worlds_invalidated_total", help="World-cache segments dropped per object."
        )
        self._direct_draws = count("direct_draws_total", help="Objects drawn outside the cache.")
        self._worlds_sampled = count(
            "worlds_sampled_total", help="Possible worlds drawn/used by completed evaluations."
        )
        # Labelled per-evaluation instruments (see :meth:`_instrument`).
        self._instruments: dict[tuple, object] = {}
        self._ust = ust_tree
        if ust_tree is not None:
            ust_tree.metrics = metrics
        #: The open :meth:`shared_filter` block: ``pending`` (``(times, k) ->
        #: {query}``, registered and not filtered yet) and ``results``
        #: (``(query, times, k, reverse) -> PruningResult`` at ``version``).
        self._filter_memo: SimpleNamespace | None = None
        #: Cached per-object sampled worlds; see :mod:`repro.core.worlds`.
        self.worlds = WorldCache(metrics=metrics)
        # World-cache lookups made ahead for blocks no evaluation has taken
        # yet (the serve tier's staged blocks): held back from reports
        # until the consuming evaluation takes its block.
        self._lookups_ahead = [0, 0, 0]
        self._draw_epoch = 0
        self._epoch_counter = 0  # monotonic allocator (epochs can be restored)
        self._batch_depth = 0
        self._batch_window: tuple[int, int] | None = None
        self._direct_round = 0
        self._last_batch_epoch: int | None = None
        # Columnar sampling arena (fused refinement); mutated objects are
        # evicted selectively, populated on first touch per object.
        self._arena = SamplingArena(self.backend == "native", self.metrics)
        self._rng_tags: dict[str, tuple[np.ndarray, int]] = {}
        # Mutation sync state: the database version the derived structures
        # (index, arena, world cache) currently reflect, plus the world
        # cache's wholesale-invalidation token (bumped only when a
        # non-selective flush is required; selective ingests keep it).
        self._mut_seen = db.version
        self._worlds_token = 0
        # Root entropy for per-object world RNGs: drawn once from the main
        # stream so two engines with the same seed sample identical worlds.
        self._world_entropy = int(self.rng.integers(2**63))

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    @property
    def ust_tree(self) -> USTTree:
        """The UST-tree over the database (built lazily, maintained on change).

        The database's mutation counter detects added/removed objects and
        newly ingested observations, so queries never run against a stale
        index.  A mutation re-indexes only the touched objects' rows in
        place; when the mutation log cannot name the touched objects the
        tree is rebuilt from scratch.
        """
        self.sync_mutations()
        if self._ust is None:
            self._ust = USTTree(self.db)
            self._ust.metrics = self.metrics
            self.index_rebuilds.inc()
        return self._ust

    def sync_mutations(self, wholesale: bool = False) -> None:
        """Bring every derived structure in line with the database.

        Called on entry of each query path.  When the database can name
        the objects a version delta touched, exactly those objects are
        invalidated: their index rows rewritten, their packed arena tables
        evicted and their cached worlds dropped — everything else stays
        bit-identical.
        Otherwise — or when the caller already decided so
        (``wholesale=True``: a shard worker mirroring its coordinator,
        whose log may have overflowed when the worker's did not) — the
        wholesale invalidation runs: index dropped, arena reset,
        world-cache token bumped (flushing all worlds at the next stamped
        access).
        """
        version = self.db.version
        if version == self._mut_seen and not wholesale:
            return
        changed = None if wholesale else self.db.changed_since(self._mut_seen)
        if changed is None:
            self._ust = None
            self._arena = SamplingArena(self.backend == "native", self.metrics)
            self._worlds_token += 1
        else:
            if self._ust is not None:
                for oid in sorted(changed):
                    self._ust.update_object(oid)
                    self.index_updates.inc()
            for oid in changed:
                self._arena.discard(oid)
                if oid not in self.db:
                    # Removed ids free their cached RNG tags too (re-added
                    # ids recompute the identical digest, so eviction is
                    # semantically free) — a forever-stream cycling object
                    # ids must not leak per-id state.
                    self._rng_tags.pop(oid, None)
            self.worlds_invalidated.inc(self.worlds.invalidate_objects(changed))
        self._mut_seen = version

    # ------------------------------------------------------------------
    # world management
    # ------------------------------------------------------------------
    @property
    def draw_epoch(self) -> int:
        """Current draw epoch; worlds are deterministic within one epoch."""
        return self._draw_epoch

    @property
    def worlds_token(self) -> int:
        """The world cache's wholesale-invalidation token.

        Part of the cache stamp ``(token, epoch)``: it advances only when
        a mutation forces a *full* flush (a mutation log too old to name
        the touched objects).  Selective
        streaming invalidation keeps it — untouched objects' worlds
        survive the ingest bit-identically.
        """
        return self._worlds_token

    @property
    def _stamp(self) -> tuple[int, int]:
        """What cached worlds and refinement blocks are current against."""
        return self._worlds_token, self._draw_epoch

    @property
    def sampler_calls(self) -> int:
        """Full sampler invocations so far (cache misses + direct draws).

        Forward extensions of cached segments are cheaper resumed draws and
        are tracked separately as ``worlds.partial_hits``.
        """
        return self.worlds.misses.value + self._direct_draws.value

    def _lookup_counts(self) -> tuple[int, int, int]:
        """World-cache ``(hits, partial hits, misses)`` so far, less those
        made ahead for blocks no evaluation took yet — what reports and
        :meth:`prefetch_worlds` take deltas of."""
        worlds = self.worlds
        h, p, m = self._lookups_ahead
        return worlds.hits.value - h, worlds.partial_hits.value - p, worlds.misses.value - m

    def new_draw_epoch(self) -> int:
        """Advance to a fresh, never-used epoch: subsequent queries redraw."""
        self._epoch_counter += 1
        self._draw_epoch = self._epoch_counter
        return self._draw_epoch

    @contextmanager
    def _staging(self, reqs: list):
        """Hook: wraps the evaluations of an ``evaluate_many`` batch.

        Entered after the epoch and batch window are pinned, inside the
        batch's :meth:`shared_filter` block.  The base engine does nothing;
        the sharded serving engine overrides it to fetch the blocks the
        batch will ask :meth:`fill_blocks` for from all shard workers in
        one round trip instead of one round per request.
        """
        yield

    @contextmanager
    def held_batch(
        self,
        epoch: int | None = None,
        window: tuple[int, int] | None = None,
    ):
        """Run a block under an externally supplied batch context.

        Temporarily adopts ``epoch`` as the current draw epoch and merges
        ``window`` into the live batch window, incrementing the batch depth
        so world lookups inside the block take the shared-cache path with
        exactly the anchors a coordinator's ``evaluate_many`` would use.
        This is how shard workers reproduce the coordinator's cache
        evolution bit-for-bit: the coordinator ships its epoch and batch
        window with every compute command, and the worker evaluates inside
        ``held_batch(epoch, window)``.  All prior state is restored on
        exit; the epoch counter is advanced past ``epoch`` so a later
        ``new_draw_epoch`` cannot re-issue it.
        """
        prev_epoch = self._draw_epoch
        prev_last = self._last_batch_epoch
        prev_window = self._batch_window
        if epoch is not None:
            epoch = int(epoch)
            self._epoch_counter = max(self._epoch_counter, epoch)
            self._draw_epoch = epoch
            self._last_batch_epoch = epoch
        if window is not None:
            lo, hi = int(window[0]), int(window[1])
            if prev_window is not None:
                lo = min(lo, prev_window[0])
                hi = max(hi, prev_window[1])
            self._batch_window = (lo, hi)
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            self._batch_window = prev_window
            if epoch is not None:
                self._draw_epoch = prev_epoch
                self._last_batch_epoch = prev_last

    def restore_batch_epoch(self) -> bool:
        """Rewind to the last ``evaluate_many`` batch's draw epoch.

        Returns ``False`` (and does nothing) when no batch ran yet.  The
        streaming monitor calls this before prefetching dirty objects'
        worlds during ingest, so the warm-up draws land in exactly the
        epoch the tick's held-world evaluations will read from — the same
        rewind ``evaluate_many(refresh_worlds=False)`` performs itself.
        """
        if self._last_batch_epoch is None:
            return False
        self._draw_epoch = self._last_batch_epoch
        return True

    def _begin_query(self) -> None:
        """Epoch policy at query entry.

        Standalone queries get fresh worlds (classic semantics); inside a
        batch, or when the engine was built with ``reuse_worlds=True``, the
        current epoch is held so worlds are shared.
        """
        if not self.reuse_worlds and self._batch_depth == 0:
            self.new_draw_epoch()

    def _object_entropy(self, object_id: str, round_: int) -> np.ndarray | None:
        """uint32 entropy words seeding the (object, epoch, round) stream.

        Pre-coerced uint32 entropy template.  SeedSequence coerces a
        python-int list to exactly this little-endian limb layout, so
        seeding from the template with the epoch/round limbs patched in
        yields the *same* pool — the same streams — while skipping the
        per-call coercion (it dominates construction cost, and refinement
        builds one generator per candidate).  Returns ``None`` when the
        epoch or round overflows its single-limb slot; callers then seed
        from the equivalent python-int list instead.
        """
        cached = self._rng_tags.get(object_id)
        if cached is None:
            digest = hashlib.sha256(object_id.encode("utf-8")).digest()
            tags = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
            limbs: list[int] = []
            entropy = self._world_entropy
            while True:
                limbs.append(entropy & 0xFFFFFFFF)
                entropy >>= 32
                if not entropy:
                    break
            template = np.array(limbs + [0, 0] + tags, dtype=np.uint32)
            cached = (template, len(limbs))
            self._rng_tags[object_id] = cached
        template, n_limbs = cached
        epoch = self._draw_epoch
        if 0 <= epoch < 2**32 and 0 <= round_ < 2**32:
            entropy_arr = template.copy()
            entropy_arr[n_limbs] = epoch
            entropy_arr[n_limbs + 1] = round_
            return entropy_arr
        return None

    def _object_rng(self, object_id: str, round_: int = 0):
        """Deterministic per-(object, epoch[, round]) generator.

        Derived from the engine's root entropy rather than drawn from the
        shared stream, so an object's worlds do not depend on which other
        objects a query happens to refine — k-variants and repeated windows
        stay exactly comparable.  The id enters the seed as a full 128-bit
        digest (a 32-bit tag would correlate colliding objects' worlds,
        breaking object independence at ~10k-object scale).  ``round_``
        distinguishes successive direct ``distance_tensor`` calls within
        one epoch, so repeated calls still yield fresh, averageable worlds.

        On a native-backend engine whose verified C seeder is available
        this is a :class:`~repro.markov.native.LazySeededRng` over the same
        stream: samplers seed and draw its uniforms in C without ever
        constructing a ``Generator`` (the handle materializes one, parked
        at the identical stream position, only if other code touches it).
        Everywhere else it is the ``Generator`` itself.
        """
        entropy_arr = self._object_entropy(object_id, round_)
        if entropy_arr is not None:
            if self.backend == "native" and native_tier.seed_fill_ready():
                return native_tier.LazySeededRng(entropy_arr)
            seed = np.random.SeedSequence(entropy_arr)
        else:  # huge epochs/rounds span multiple limbs: take the slow path
            template, n_limbs = self._rng_tags[object_id]
            seed = np.random.SeedSequence(
                [
                    self._world_entropy,
                    self._draw_epoch,
                    round_,
                    *(int(tag) for tag in template[n_limbs + 2 :]),
                ]
            )
        return np.random.Generator(np.random.PCG64(seed))

    def _cache_window(self, obj: UncertainObject, times: np.ndarray) -> tuple[int, int]:
        """The window a shared (cached) draw for ``obj`` should cover.

        Inside a batch this is the batch's precomputed time-union — so
        every request of the batch slices one common draw — clamped to the
        object's span; for standalone shared queries (``reuse_worlds``) it
        is the hull of the requested times.
        """
        if self._batch_window is not None:
            lo, hi = self._batch_window
            return max(obj.t_first, lo), min(obj.t_last, hi)
        return int(times[0]), int(times[-1])

    # ------------------------------------------------------------------
    # filter step
    # ------------------------------------------------------------------
    @contextmanager
    def shared_filter(self, requests: Sequence[QueryRequest]):
        """Let ``requests`` share § 6 filter work while the block runs.

        The filter is a function of ``(query, times, k)`` and the database
        version, and a monitor's subscriptions mostly share a window.  The
        block registers the requests that *may* be filtered inside it;
        nothing is filtered until one of them asks (:meth:`filter_objects`),
        and then one :meth:`USTTree.prune_many` pass answers every
        registered peer with the same ``(times, k)``.
        Later askers — ``explain``, ``evaluate``,
        the serve tier's column prediction — read the stored result.  A
        monitor tick and :meth:`evaluate_many` open one; a nested block
        joins the outer one, and nothing outlives the outermost.
        """
        outer = self._filter_memo
        memo = self._filter_memo = outer or SimpleNamespace(
            version=self.db.version, pending={}, results={}
        )
        for request in requests:
            if request.mode != "reverse_nn":  # reverse never reaches the index
                window = (tuple(sorted(set(request.times))), request.k)
                memo.pending.setdefault(window, {})[request.query] = None
        try:
            yield
        finally:
            self._filter_memo = outer

    def filter_objects(
        self,
        q: Query,
        times: np.ndarray,
        k: int = 1,
        *,
        normalized: bool = False,
        reverse: bool = False,
        mode: str | None = None,
    ) -> PruningResult:
        """Run the § 6 filter step (or the no-pruning fallback).

        ``normalized=True`` promises ``times`` is already the canonical
        sorted-unique array, skipping a redundant re-normalization on the
        internal query paths.

        ``reverse=True`` (or ``mode="reverse_nn"``) forces the overlap
        fallback even on a pruning engine: the UST-tree's dmin/dmax
        bounds rank objects *around the query*, but in the reverse
        direction an object arbitrarily far from ``q`` can still have
        ``q`` among its k nearest neighbors (it only needs to be isolated
        from the other objects), so distance-to-``q`` pruning is unsound
        — every object overlapping ``T`` is a reverse candidate.

        Raises ``ValueError`` (naming ``mode``, the query kind and the
        times) for locations that are not finite ``(len(times), d)``
        coordinates of the state space.  Inside a :meth:`shared_filter`
        block the result is the block's shared one.
        """
        if not normalized:
            times = normalize_times(times)
        reverse = reverse or mode == "reverse_nn"
        window = (tuple(times.tolist()), k, reverse)
        memo = self._filter_memo
        if memo is not None:
            if memo.version != self.db.version:
                memo.results.clear()
                memo.version = self.db.version
            if (q, *window) in memo.results:
                return memo.results[(q, *window)]
        ndim = self.db.space.ndim
        label = f"{mode} {q.kind} query" if mode else f"{q.kind} query"
        coords = check_query_coords(q.coords_at(times), times, ndim, label)
        if reverse or not self.use_pruning:
            overlapping = self.db.objects_overlapping(times)
            result = PruningResult(
                candidates=[o.object_id for o in overlapping if o.covers_all(times)],
                influencers=[o.object_id for o in overlapping],
                prune_distances=np.full(times.size, np.inf),
                # The fallback scans every overlapping object; reporting 0 here
                # would make pruning-on/off EvaluationReport comparisons claim
                # the unpruned path examined nothing.
                examined_entries=len(overlapping),
            )
        elif memo is None:
            # A standalone request filters one query at a time.
            result = self.ust_tree.prune(coords, times, k)
        else:
            # One pass answers every registered peer of the window that is
            # not answered yet; a peer whose coordinates cannot be taken is
            # left out and says so itself when it asks.
            group = {q: coords}
            for peer in memo.pending.pop(window[:2], ()):
                if peer not in group and (peer, *window) not in memo.results:
                    try:
                        group[peer] = check_query_coords(peer.coords_at(times), times, ndim)
                    except Exception:  # noqa: BLE001 - the peer's error, not q's
                        pass
            results = self.ust_tree.prune_many(np.stack(list(group.values())), times, k)
            memo.results.update(((peer, *window), res) for peer, res in zip(group, results))
            return results[0]
        if memo is not None:
            memo.results[(q, *window)] = result
        return result

    def _arena_for(self, objects: list[UncertainObject]) -> SamplingArena:
        """The fused sampling arena, packed with the given objects.

        Mutation staleness is handled by :meth:`sync_mutations` before
        any query path reaches here: it evicts only the mutated objects'
        packed tables; a wholesale invalidation replaces the arena.
        Objects join on first refinement at their stable
        database order so the packed layout is independent of
        candidate-list order — after one batched adaptation of every
        newcomer still to be derived.
        """
        joining = [obj for obj in objects if obj.object_id not in self._arena]
        adapt_objects(joining)
        for obj in joining:
            self._arena.ensure(
                obj.object_id,
                obj.compiled,
                order=self.db.object_index(obj.object_id),
            )
        return self._arena

    # ------------------------------------------------------------------
    # refinement: possible worlds
    # ------------------------------------------------------------------
    @staticmethod
    def _distinct(object_ids: Sequence[str]) -> tuple[list[str], list[int] | None]:
        """The distinct ids in first-occurrence order and, when some id
        repeats, each mention's position among them (else ``None``).

        Everything below the public refinement entry points — the world
        and refine caches, the serve tier's staged keys — sees one column
        per object; a repeated id is drawn once and expanded by index.
        """
        ids = list(dict.fromkeys(object_ids))
        if len(ids) == len(object_ids):
            return ids, None
        position = {oid: i for i, oid in enumerate(ids)}
        return ids, [position[oid] for oid in object_ids]

    def distance_tensor(
        self,
        object_ids: list[str],
        q: Query,
        times: np.ndarray,
        n_samples: int | None = None,
        *,
        normalized: bool = False,
        cache_k: int = 1,
    ) -> np.ndarray:
        """Sample worlds and return ``dist[w, o, t]`` (inf where not alive).

        Objects are sampled independently — the paper's object-independence
        assumption — and each world combines one sampled trajectory per
        object.  Inside a batch (or on a ``reuse_worlds`` engine) worlds
        come from the epoch's shared cache; on a default engine each direct
        call draws fresh window-scoped worlds (deterministic per epoch).
        Pass ``normalized=True`` when ``times`` is already canonical.

        All objects are drawn in one columnar arena pass and the distances
        are row gathers from a per-(tic, state) table; an id listed twice
        is drawn once and answers both of its columns.

        The answer is a transposed *view* of the engine's C-contiguous
        ``(objects, times, worlds)`` block — the order the sampler sweeps
        in — so ``dist[:, o, t]`` is a contiguous row and the reductions of
        :mod:`repro.trajectory.nn` run with unit-stride inner loops.  A
        ``.copy()`` or ``np.ascontiguousarray`` of it re-materialises
        world-major; values are the same, every pass over it slower.

        ``cache_k`` partitions the refinement tensor *cache* by the
        requesting query's kNN depth.  The tensor's values are
        k-independent; the partition keeps each standing subscription's
        dirty-column version accounting private to its own entry, so
        same-query subscriptions at different depths never interleave
        patch bookkeeping on one shared array.
        """
        block, _ = self._refined(
            "dist", object_ids, q, times, n_samples, normalized, cache_k
        )
        return block.transpose(2, 0, 1)

    def _refined(
        self,
        kind: str,
        object_ids: Sequence[str],
        q: Query,
        times: np.ndarray,
        n_samples: int | None,
        normalized: bool,
        cache_k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """What :meth:`distance_tensor` and :meth:`reverse_distance_tensors`
        share: one ``kind`` block over ``object_ids`` — built as a
        :class:`RefineJob`, served through the refine cache inside a batch
        — and the query's coordinates at ``times``."""
        n = self.n_samples if n_samples is None else check_count("n_samples", n_samples)
        if not normalized:
            times = normalize_times(times)
        self.sync_mutations()
        ids, inverse = self._distinct(object_ids)
        if not (self.reuse_worlds or self._batch_depth > 0):
            # One round per direct call: repeated calls within an epoch draw
            # fresh (yet seed-deterministic) worlds, so averaging over calls
            # adds information.
            self._direct_round += 1
        coords = q.coords_at(times)
        job = RefineJob(kind, coords if kind == "dist" else None, times, tuple(ids), n)
        # Only batched (monitor-tick) evaluations are cached: a standalone
        # ``reuse_worlds`` evaluation reads the world cache alone, so its
        # per-report cache-hit accounting stays exact.
        if self._batch_depth > 0 and self.refine_cache_size > 0:
            block, cols, hit = self._refine_cache.fetch(
                job, cache_k, self._stamp, lambda j: self.fill_blocks([j])[0]
            )
            (self.estimate_cache_hits if hit else self.estimate_cache_misses).inc()
            self.estimate_columns_refreshed.inc(len(cols))
            self.estimate_columns_reused.inc(len(ids) - len(cols))
        else:
            block = self.fill_blocks([job])[0]
        if inverse is not None:
            block = block[inverse]  # a copy, never the cached array
        return block, coords

    def _drawn_states(
        self, objects: list[UncertainObject], alive_times: list[np.ndarray], n: int
    ) -> list[np.ndarray]:
        """Every object's worlds at its alive times, from one fused draw.

        Each object draws from its own RNG stream over its own cache
        window; the object count is a vectorized axis of the draw, not a
        loop.  Each answer is ``(n, alive tics)`` with the world axis
        contiguous: a view of a cached segment or of the sweep buffer.
        """
        if self.reuse_worlds or self._batch_depth > 0:
            items = [
                (obj.object_id, n, *self._cache_window(obj, at))
                for obj, at in zip(objects, alive_times)
            ]
            segments = self.fetch_worlds(items)
            return [seg.slice(at) for seg, at in zip(segments, alive_times)]
        fresh = [(i, int(at[0]), int(at[-1])) for i, at in enumerate(alive_times)]
        drawn, _ = self._bulk_sampler(objects, n, self._direct_round)(fresh, [])
        self._direct_draws.inc(len(fresh))
        return [take_tics(p, at - at[0]) for (p, _), at in zip(drawn, alive_times)]

    def fill_blocks(self, jobs: list[RefineJob]) -> list[np.ndarray]:
        """One C-contiguous ``(objects, times, worlds)`` block per job — the
        one place sampled worlds become refinement arrays.

        Runs under the current draw epoch and batch window.  A ``"dist"``
        job's block holds the distances to the query (``inf`` where an
        object is not alive), a ``"states"`` job's the sampled state ids
        (``-1`` there).  Worlds come from the shared world cache inside
        batches and from a direct fused arena draw otherwise, so one epoch
        yields the same worlds for both kinds.  Objects are drawn
        independently: any subset of a job's columns, filled anywhere,
        equals those columns of the whole block — which is what lets the
        serve tier's engine override this with a fan-out to the shards
        owning the columns, whose workers call it on their share.
        """
        return [self._fill(job) for job in jobs]

    def _fill(self, job: RefineJob) -> np.ndarray:
        if job.kind not in ("dist", "states"):
            raise ValueError(f"unknown refinement block kind {job.kind!r}")
        ids, times, n = job.object_ids, job.times, job.n
        alive = self.db.alive_matrix(ids, times)
        live_cols = np.flatnonzero(alive.any(axis=1))
        if live_cols.size == 0:
            return job.empty()
        states = self._drawn_states(
            [self.db.get(ids[c]) for c in live_cols],
            [times[alive[c]] for c in live_cols],
            n,
        )
        if job.kind == "dist":
            return gather_distances(
                self.db.space, job.coords, alive, live_cols, states, n,
                native=self.backend == "native",
            )
        block = job.empty()
        for col, paths in zip(live_cols, states):
            block[col, alive[col]] = paths.T
        return block

    # ------------------------------------------------------------------
    # refinement: reverse direction (states, then pairwise distances)
    # ------------------------------------------------------------------
    def reverse_distance_tensors(
        self,
        object_ids: list[str],
        q: Query,
        times: np.ndarray,
        n_samples: int | None = None,
        *,
        normalized: bool = False,
        cache_k: int = 1,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sampled tensors for reverse-kNN counting, from **one** draw.

        Returns ``(dist, object_dist)``: the familiar query-distance tensor
        ``dist[w, o, t]`` (bit-identical to :meth:`distance_tensor` over
        the same worlds — inside a shared epoch the two are served from
        the *same* cached world segments, so forward and reverse answers
        of one batch are mutually consistent) and the inter-object tensor
        ``object_dist[w, a, o, t] = d(a(t), o(t))`` with ``np.inf`` on the
        diagonal and wherever either endpoint is dead.  Both derive from a
        single sampled-states block per call — the reverse direction never
        re-samples per object.

        Memory is ``O(n · |O|² · |T|)`` for the inter-object tensor; the
        reverse mode is built for candidate sets the filter stage keeps
        small, not for the 10⁵-object fleet (which would go through a
        chunked streaming variant).
        """
        states, coords = self._refined(
            "states", object_ids, q, times, n_samples, normalized, cache_k
        )
        return reverse_tensors(self.db.space, states, coords)

    def _bulk_sampler(self, objects: list[UncertainObject], n: int, round_: int = 0):
        """The engine's one draw: the :meth:`WorldCache.states_for_many`
        callback, one arena pass for every cache miss (fresh window draw)
        and partial hit (resumed forward extension) of one lookup — and,
        with a direct call's ``round_``, for that call's fresh draws.  Only
        the drawn objects join the arena: a streaming tick that redraws one
        dirty object touches nobody else."""

        def bulk(fresh: list, extend: list):
            requests = [
                ArenaRequest(
                    objects[pos].object_id, t_lo, t_hi,
                    self._object_rng(objects[pos].object_id, round_),
                )
                for pos, t_lo, t_hi in fresh
            ]
            requests += [
                ArenaRequest(
                    objects[pos].object_id, t_from, t_hi, rng, start_states=last
                )
                for pos, rng, last, t_from, t_hi in extend
            ]
            drawn = [objects[pos] for pos, *_ in fresh + extend]
            results = sample_paths_arena(self._arena_for(drawn), requests, n)
            fresh_results = [
                (states, req.rng)
                for states, req in zip(results[: len(fresh)], requests[: len(fresh)])
            ]
            # Resumed draws echo the anchor column; the cache appends only
            # the newly grown tics.
            extend_results = [grown[:, 1:] for grown in results[len(fresh) :]]
            return fresh_results, extend_results

        return bulk

    def prefetch_worlds(
        self,
        object_ids: Sequence[str] | None = None,
        window: tuple[int, int] | None = None,
        n_samples: int | None = None,
    ) -> dict[str, int]:
        """Warm the world cache for a working set — no distances computed.

        Draws (or forward-extends) each object's cached worlds over
        ``window`` clamped to its span, exactly as a held-epoch query
        touching those objects would, and returns the lookup accounting
        (``{"objects", "hits", "partial_hits", "misses"}``).  This is the
        ingest-to-ready path of a serving deployment: after an event
        batch, one call restores query-ready state (index synced via
        :attr:`ust_tree`, worlds current) at the cost of the *dirty*
        objects only (an id listed twice is looked up once).  Worlds enter
        the cache at the current draw epoch, so the call is meaningful on engines
        that share worlds (``reuse_worlds=True``, or between held-epoch
        batches); a default standalone query afterwards would advance the
        epoch and redraw regardless.
        """
        n = self.n_samples if n_samples is None else check_count("n_samples", n_samples)
        self.sync_mutations()
        ids = self.db.object_ids if object_ids is None else dict.fromkeys(object_ids)
        items: list[tuple[str, int, int, int]] = []
        for object_id in ids:
            obj = self.db.get(object_id)
            t_lo, t_hi = obj.t_first, obj.t_last
            if window is not None:
                t_lo, t_hi = max(t_lo, int(window[0])), min(t_hi, int(window[1]))
            if t_lo <= t_hi:  # else the object is entirely outside the window
                items.append((obj.object_id, n, t_lo, t_hi))
        before = self._lookup_counts()
        if items:
            self.fetch_worlds(items)
        hits, partial_hits, misses = (
            now - then for now, then in zip(self._lookup_counts(), before)
        )
        return {"objects": len(items), "hits": hits, "partial_hits": partial_hits, "misses": misses}

    def fetch_worlds(self, items: Sequence[tuple[str, int, int, int]]) -> list:
        """Look ``(object_id, n, t_lo, t_hi)`` items up in the world cache at
        the current stamp — drawing, or forward-extending, what is not
        there — and return their segments in order (none on the serve
        tier's engine, whose segments live in the owning shard workers).

        All items of one world count share one fused draw.
        """
        segments: list = [None] * len(items)
        for n in dict.fromkeys(item[1] for item in items):
            at = [i for i, item in enumerate(items) if item[1] == n]
            found = self.worlds.states_for_many(
                [((items[i][0], n), items[i][2], items[i][3]) for i in at],
                stamp=self._stamp,
                bulk_sampler=self._bulk_sampler(
                    [self.db.get(items[i][0]) for i in at], n
                ),
            )
            for i, segment in zip(at, found):
                segments[i] = segment
        return segments

    # ------------------------------------------------------------------
    # the staged pipeline: plan -> filter -> estimate -> threshold
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_request(request: QueryRequest | tuple) -> QueryRequest:
        """Accept bare ``(query, times[, mode[, tau[, k]]])`` tuples."""
        if isinstance(request, QueryRequest):
            return request
        return QueryRequest(*request)

    def explain(self, request: QueryRequest | tuple) -> Explanation:
        """Plan + filter a request *without executing* the estimate stage.

        Runs stages 1-2 of the pipeline — estimator/sample-size resolution
        and the deterministic § 6 pruning — and returns the plan, the
        candidate/influence sets and a skeleton
        :class:`~repro.core.results.EvaluationReport` (``executed=False``,
        zero timings).  No worlds are sampled, no draw epoch is consumed
        and the world cache is untouched, so explaining is cheap enough
        for a serving layer to call on every request.
        """
        request = self._coerce_request(request)
        plan = build_plan(request, self.n_samples)
        times = np.asarray(plan.times, dtype=np.intp)
        pruning = self.filter_objects(
            request.query, times, k=request.k, normalized=True, mode=request.mode
        )
        report = EvaluationReport(
            **self._report_base(plan, pruning),
            n_samples=plan.n_samples,
            epsilon=plan.epsilon,
            notes=plan.notes,
            executed=False,
        )
        return Explanation(
            plan=plan,
            candidates=tuple(pruning.candidates),
            influencers=tuple(pruning.influencers),
            examined_entries=pruning.examined_entries,
            report=report,
        )

    def evaluate(
        self, request: QueryRequest | tuple
    ) -> QueryResult | PCNNResult | RawProbabilities | ReverseNNResult:
        """Run one request through the full staged pipeline.

        Stages: **plan** (estimator + world-budget resolution) →
        **filter** (§ 6 pruning) → **estimate** (the plan's strategy; see
        :mod:`repro.core.estimators`) → **threshold** (τ comparison and
        result assembly).  The returned result carries an
        :class:`~repro.core.results.EvaluationReport` with stage timings,
        pruning counts, world-cache deltas and per-object estimator
        provenance.

        With the default ``estimator="sampled"`` this is exactly the
        classic engine: the legacy entry points are shims over this method
        and return bit-identical seeded results.
        """
        request = self._coerce_request(request)
        tracer = self.tracer
        # Stage timings are read off span durations — one timing truth
        # whether tracing is recording (Tracer) or not (NullTracer).
        with tracer.span("evaluate") as sp_eval:
            with tracer.span("plan") as sp_plan:
                self.sync_mutations()
                plan = build_plan(request, self.n_samples)
                times = np.asarray(plan.times, dtype=np.intp)
                self._begin_query()
            with tracer.span("filter") as sp_filter:
                pruning = self.filter_objects(
                    request.query, times, k=request.k, normalized=True, mode=request.mode
                )
                # The kNN depth must fit the competitor pool the filter
                # produced: with fewer than k influence objects every alive
                # object would trivially qualify (np.partition's degenerate
                # branch), which is never what a caller asking for depth k
                # meant.  An *empty* pool stays legal — it yields the
                # classic empty result for any k.
                if pruning.influencers and request.k > len(pruning.influencers):
                    raise ValueError(
                        f"k={request.k} exceeds the filter stage's competitor "
                        f"pool ({len(pruning.influencers)} influence "
                        f"object(s) over T={list(map(int, times))}); a kNN "
                        "depth cannot exceed the number of objects that "
                        "could rank"
                    )
                # For ∃/PCNN/raw semantics every influence object is a
                # potential result (Section 6, "Pruning for the P∃NNQ
                # query"); the reverse direction likewise reports over the
                # full overlap set.
                result_ids = (
                    pruning.candidates
                    if request.mode == "forall"
                    else pruning.influencers
                )
            with tracer.span("estimate") as sp_estimate:
                cache_before = self._lookup_counts()
                ctx = EstimationContext(
                    engine=self,
                    request=request,
                    plan=plan,
                    times=times,
                    pruning=pruning,
                    result_ids=list(result_ids),
                    refine_ids=list(pruning.influencers),
                )
                outcome = make_estimator(plan.resolved_estimator).run(ctx)
            with tracer.span("threshold") as sp_threshold:
                result = self._assemble(
                    request, plan, pruning, outcome, times, result_ids
                )
            result.report = self._build_report(
                plan,
                pruning,
                outcome,
                cache_before,
                {
                    "plan": sp_plan.duration_seconds,
                    "filter": sp_filter.duration_seconds,
                    "estimate": sp_estimate.duration_seconds,
                    "threshold": sp_threshold.duration_seconds,
                },
            )
            if tracer.enabled:
                sp_eval.set(
                    mode=request.mode,
                    estimator=plan.resolved_estimator,
                    n_candidates=len(pruning.candidates),
                    n_influencers=len(pruning.influencers),
                    n_samples=outcome.n_samples_used,
                )
        self._observe_evaluation(request, result.report, sp_eval)
        return result

    def _instrument(self, kind: str, name: str, help: str, **labels: str):
        """The registry's ``kind`` instrument ``name{labels}``, its handle
        cached (label values come from fixed sets: stages, modes, reasons)."""
        key = (name, *labels.values())
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = getattr(self.metrics, kind)(name, help=help, labels=labels)
            self._instruments[key] = instrument
        return instrument

    def _observe_evaluation(self, request, report, span) -> None:
        """Feed telemetry after one evaluation (read-only observation)."""
        for stage, secs in report.stage_seconds.items():
            self._instrument(
                "histogram", "evaluate_latency_seconds", "Per-stage evaluate() latency.",
                stage=stage,
            ).observe(secs)
        self._instrument(
            "counter", "queries_total", "Evaluations completed, by query mode.", mode=request.mode
        ).inc()
        self._worlds_sampled.inc(report.n_samples)
        log = self.slow_log
        if log is not None:
            total = report.total_seconds
            if total >= log.threshold_seconds:
                log.record(
                    f"evaluate:{request.mode}",
                    total,
                    explain=report.as_dict(),
                    trace=span.to_dict() if self.tracer.enabled else None,
                )

    def _assemble(
        self,
        request: QueryRequest,
        plan: QueryPlan,
        pruning: PruningResult,
        outcome: EstimateOutcome,
        times: np.ndarray,
        result_ids: list[str],
    ) -> QueryResult | PCNNResult | RawProbabilities | ReverseNNResult:
        """Threshold stage: τ-filter the estimates into the result object
        (with its own copies of the filter sets: ``pruning`` may be shared)."""
        if request.mode == "pcnn":
            # The classic engine reports the engine-wide sample count even
            # when nothing needed refinement; preserved for bit-identity.
            result = PCNNResult(
                entries=list(outcome.entries or []),
                candidates=list(pruning.candidates),
                influencers=list(pruning.influencers),
                n_samples=plan.n_samples,
                sets_evaluated=outcome.sets_evaluated,
            )
            if request.maximal_only:
                result.entries = result.maximal_entries()
            return result
        if request.mode == "raw":
            return RawProbabilities(
                forall=dict(outcome.probabilities),
                exists=dict(outcome.exists_probabilities or {}),
                candidates=list(pruning.candidates),
                influencers=list(pruning.influencers),
                n_samples=outcome.n_samples_used,
                times=times,
            )
        estimates = {
            oid: outcome.probabilities[oid]
            for oid in result_ids
            if oid in outcome.probabilities
        }
        results = [
            ObjectProbability(oid, p)
            for oid, p in estimates.items()
            if p >= request.tau
        ]
        results.sort(key=lambda r: (-r.probability, r.object_id))
        if request.mode == "reverse_nn":
            return ReverseNNResult(
                results=results,
                probabilities=estimates,
                exists=dict(outcome.exists_probabilities or {}),
                candidates=list(pruning.candidates),
                influencers=list(pruning.influencers),
                n_samples=outcome.n_samples_used,
                k=request.k,
                times=times,
            )
        return QueryResult(
            results=results,
            probabilities=estimates,
            candidates=list(pruning.candidates),
            influencers=list(pruning.influencers),
            n_samples=outcome.n_samples_used,
            times=times,
        )

    @staticmethod
    def _report_base(plan: QueryPlan, pruning: PruningResult) -> dict:
        """Plan- and filter-derived report fields, shared by explain()
        skeletons and executed reports so the two cannot drift apart."""
        return {
            "estimator": plan.estimator,
            "resolved_estimator": plan.resolved_estimator,
            "mode": plan.mode,
            "k": plan.k,
            "delta": plan.delta,
            "n_candidates": len(pruning.candidates),
            "n_influencers": len(pruning.influencers),
            "examined_entries": pruning.examined_entries,
        }

    def _build_report(
        self,
        plan: QueryPlan,
        pruning: PruningResult,
        outcome: EstimateOutcome,
        cache_before: tuple[int, int, int],
        stage_seconds: dict[str, float],
    ) -> EvaluationReport:
        """Accounting for one executed evaluation (cache counters as deltas)."""
        cache_after = self._lookup_counts()
        epsilon = plan.epsilon
        if outcome.n_samples_used == 0 and plan.n_samples > 0:
            # The planned radius describes a draw that never happened (the
            # bounds decided every candidate, or nothing needed refinement);
            # reporting it would attach sampling error to certified values.
            epsilon = None
        return EvaluationReport(
            **self._report_base(plan, pruning),
            n_samples=outcome.n_samples_used,
            epsilon=epsilon,
            stage_seconds=stage_seconds,
            sampled_objects=outcome.sampled_objects,
            bounds_decided=sum(
                1
                for tag in outcome.estimator_by_object.values()
                if tag.startswith("bounds:")
            ),
            undecided=outcome.undecided,
            estimator_by_object=dict(outcome.estimator_by_object),
            cache_hits=cache_after[0] - cache_before[0],
            cache_partial_hits=cache_after[1] - cache_before[1],
            cache_misses=cache_after[2] - cache_before[2],
            notes=plan.notes + outcome.notes,
            executed=True,
        )

    # ------------------------------------------------------------------
    # classic entry points (shims over the pipeline)
    # ------------------------------------------------------------------
    def forall_nn(self, q: Query, times, tau: float = 0.0, k: int = 1) -> QueryResult:
        """``P∀kNNQ(q, D, T, τ)`` — NN at *every* time of ``T``.

        Shim over :meth:`evaluate` (``mode="forall"``, sampled estimator);
        seeded results are bit-identical to the pre-pipeline engine.
        """
        return self.evaluate(QueryRequest(q, times, "forall", tau, k))

    def exists_nn(self, q: Query, times, tau: float = 0.0, k: int = 1) -> QueryResult:
        """``P∃kNNQ(q, D, T, τ)`` — NN at *some* time of ``T``.

        Shim over :meth:`evaluate` (``mode="exists"``, sampled estimator);
        seeded results are bit-identical to the pre-pipeline engine.
        """
        return self.evaluate(QueryRequest(q, times, "exists", tau, k))

    def continuous_nn(
        self,
        q: Query,
        times,
        tau: float,
        k: int = 1,
        max_candidates: int = 100_000,
        use_certain_shortcut: bool = False,
        maximal_only: bool = False,
    ) -> PCNNResult:
        """``PCkNNQ(q, D, T, τ)`` — per-object qualifying timestamp sets.

        Any object alive during part of ``T`` can qualify on sub-intervals,
        so the refinement set is ``I(q)``, not ``C(q)``.  Shim over
        :meth:`evaluate` (``mode="pcnn"``); seeded results are
        bit-identical to the pre-pipeline engine.
        """
        return self.evaluate(
            QueryRequest(
                q,
                times,
                "pcnn",
                tau,
                k,
                max_candidates=max_candidates,
                use_certain_shortcut=use_certain_shortcut,
                maximal_only=maximal_only,
            )
        )

    def reverse_nn(
        self, q: Query, times, tau: float = 0.0, k: int = 1
    ) -> ReverseNNResult:
        """Reverse probabilistic kNN: which objects have ``q`` in their kNN set.

        Per object ``o``, the probability that the *query* is among ``o``'s
        ``k`` nearest neighbors — at every time of ``T`` for the primary
        (τ-thresholded) value, at some time for the companion ``exists``
        estimates, both counted from the same worlds.  Shim over
        :meth:`evaluate` (``mode="reverse_nn"``, sampled estimator).
        """
        return self.evaluate(QueryRequest(q, times, "reverse_nn", tau, k))

    def nn_probabilities(
        self, q: Query, times, k: int = 1, n_samples: int | None = None
    ) -> dict[str, tuple[float, float]]:
        """Per influence object: ``(P∀kNN, P∃kNN)`` estimates.

        Bypasses thresholding — the calibration experiments (Fig. 11) use
        this to compare estimators on the same object set.  Shim over
        :meth:`evaluate` (``mode="raw"``); seeded results are bit-identical
        to the pre-pipeline engine.
        """
        result = self.evaluate(
            QueryRequest(q, times, "raw", k=k, n_samples=n_samples)
        )
        return result.as_dict()

    # ------------------------------------------------------------------
    # batched queries (continuous monitoring)
    # ------------------------------------------------------------------
    def evaluate_many(
        self,
        requests: Sequence[QueryRequest | tuple],
        *,
        refresh_worlds: bool | None = None,
        window: tuple[int, int] | None = None,
    ) -> list[QueryResult | PCNNResult | RawProbabilities | ReverseNNResult]:
        """Evaluate many requests against one shared set of sampled worlds.

        All requests run in a single draw epoch: every influence object is
        sampled at most once per ``n_samples`` no matter how many
        queries touch it, which is what makes sliding-window monitoring
        (P∀NN/P∃NN/PCNN over overlapping windows) cheap.  Sharing worlds
        also makes results *mutually consistent* — overlapping windows are
        estimated from the same possible worlds rather than independent
        redraws.

        That one draw covers
        only the **union of the batch's query times** clamped to each
        object's span, not the full span — the refinement-cost win for
        narrow windows.  A later batch holding the epoch
        (``refresh_worlds=False``) whose union reaches further *forward*
        extends the cached paths bit-identically to one-shot sampling; a
        union reaching further *backward* triggers one fresh union-window
        redraw per object (see :mod:`repro.core.worlds`).

        Parameters
        ----------
        requests:
            :class:`~repro.core.queries.QueryRequest` items, or bare
            ``(query, times)`` / ``(query, times, mode)`` tuples that are
            coerced with default ``tau=0.0, k=1``.
        refresh_worlds:
            Whether to advance to a fresh epoch before the batch.  The
            default (``None``) follows engine policy: fresh worlds on a
            default engine, held worlds on a ``reuse_worlds`` engine
            (whose contract is that worlds only change on an explicit
            :meth:`new_draw_epoch` or a database mutation).  Pass ``False``
            to extend the previous *batch's* worlds — e.g. when a
            monitoring loop issues successive batches and wants estimates
            that only move when the database does; the engine restores
            that batch's epoch even if standalone queries ran in between
            (per-object RNGs are epoch-derived, so the same worlds are
            reproduced exactly, at worst at resampling cost).
        window:
            Optional ``(t_lo, t_hi)`` the batch's sampling window is
            *widened* to (it always covers at least the union of the
            requests' time sets).  A standing-query monitor passes the
            union over **all** of its subscriptions here so that the
            per-object cache anchors do not depend on which subset of
            subscriptions a tick happens to re-evaluate — held-epoch
            worlds then stay bit-identical across ticks whatever the
            dirty sets were.

        Returns
        -------
        list
            One :class:`QueryResult` (``forall``/``exists``),
            :class:`PCNNResult` (``pcnn``),
            :class:`~repro.core.results.RawProbabilities` (``raw``) or
            :class:`~repro.core.results.ReverseNNResult` (``reverse_nn``)
            per request, in order.
        """
        reqs = [self._coerce_request(r) for r in requests]
        if not reqs:
            return []
        explicit_hold = refresh_worlds is False
        if refresh_worlds is None:
            refresh_worlds = not self.reuse_worlds
        if refresh_worlds:
            self.new_draw_epoch()
        elif explicit_hold and self._last_batch_epoch is not None:
            # Only an *explicit* hold rewinds to the previous batch's epoch;
            # the default on a reuse_worlds engine keeps the current epoch,
            # so an explicit new_draw_epoch() between batches is respected.
            self._draw_epoch = self._last_batch_epoch
        self._last_batch_epoch = self._draw_epoch
        lo, hi = union_window(reqs)
        if window is not None:
            lo = min(lo, int(window[0]))
            hi = max(hi, int(window[1]))
        if self._batch_window is not None:
            # A nested batch widens the live window instead of replacing it,
            # so outer requests keep slicing covered segments.
            lo = min(lo, self._batch_window[0])
            hi = max(hi, self._batch_window[1])
        self._batch_window = (lo, hi)
        self._batch_depth += 1
        try:
            with self.shared_filter(reqs), self._staging(reqs):
                return [self.evaluate(req) for req in reqs]
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                self._batch_window = None
