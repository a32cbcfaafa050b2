"""The coordinator-side engine: a ``QueryEngine`` whose sampling is remote.

:class:`ShardedQueryEngine` subclasses the single-process engine and
overrides exactly the layer where sampled worlds are materialized — the
distance-tensor / states-block computations and the world prefetch.  All
planning, filtering (the UST-tree runs over the *full* database, so
candidate and influence sets are globally identical to single-process
evaluation), refinement-tensor caching, thresholding and monitoring logic
above that layer is inherited unchanged, which is the whole correctness
argument: the sharded system runs literally the same code everywhere
except that each object's worlds are drawn inside its owning shard
worker.

Bit-identity of the drawn worlds rests on three invariants:

* workers are built with the **same seed** as the coordinator, so both
  derive the same root world entropy, and per-object RNGs depend only on
  ``(entropy, draw epoch, id digest)`` — never on which other objects
  share a database or an arena;
* every compute command ships the coordinator's **draw epoch and batch
  window**, and the worker evaluates inside
  :meth:`QueryEngine.held_batch`, so cache anchors
  (:meth:`QueryEngine._cache_window`) and stamps match the single-process
  batch exactly;
* invalidation **timing** is mirrored: whenever the coordinator engine
  syncs a mutation delta it broadcasts the decision (selective vs
  wholesale) to every shard, so worker caches flush in the same tick a
  single-process cache would.

Reuse accounting folds back losslessly because the world cache
partitions by object: every lookup a single-process engine would perform
happens on exactly one worker, whose cumulative hit/miss counters the
coordinator absorbs as deltas with each reply.  Invalidation counts are
the exception — they are derived from the coordinator's own segment
window mirror, which (unlike a crashed worker's cache) survives worker
restarts.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from ..core.evaluator import QueryEngine
from ..core.planner import build_plan
from ..core.queries import Query
from .protocol import (
    ComputeColumns,
    ComputeJob,
    PrefetchWorlds,
    ShardCrashed,
    ShardFailure,
    SyncShard,
)
from .sharding import ShardRouter

__all__ = ["ShardedQueryEngine"]


class ShardedQueryEngine(QueryEngine):
    """A ``QueryEngine`` that delegates world sampling to shard workers.

    Constructed over the full database (filtering and result assembly are
    global); ``router`` maps object ids to shards and ``transport``
    carries protocol commands to the workers.  ``seed`` is mandatory —
    workers must be seeded identically for shard-independent
    reproducibility — and a caller-supplied ``rng`` is rejected for the
    same reason.
    """

    def __init__(
        self,
        db,
        *,
        router: ShardRouter,
        transport,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        if seed is None:
            raise ValueError(
                "ShardedQueryEngine requires seed= (workers derive identical "
                "world entropy from it; an unseeded engine cannot be sharded "
                "reproducibly)"
            )
        if "rng" in kwargs:
            raise ValueError("pass seed=, not rng= (workers must be re-seedable)")
        super().__init__(db, seed=seed, **kwargs)
        self.router = router
        self._transport = transport
        # Last-seen cumulative counters per shard; absorption adds deltas.
        self._shard_counters: dict[int, dict[str, int]] = {
            s: {} for s in range(router.n_shards)
        }
        # Last-seen cumulative metrics snapshots per shard — the registry
        # analogue of _shard_counters (see MetricsRegistry.merge_delta);
        # reset alongside it when a shard is restarted.
        self._shard_metric_seen: dict[int, dict] = {
            s: {} for s in range(router.n_shards)
        }
        #: Per-shard handler busy time (seconds) accumulated since the
        #: coordinator last reset it — the per-shard stage timings surfaced
        #: in ``TickReport.stage_seconds``.
        self.shard_busy_seconds: dict[int, float] = {
            s: 0.0 for s in range(router.n_shards)
        }
        # Mirror of each worker cache's per-(object, n_samples) segment
        # window as ``(epoch, t_lo, t_hi)`` — the replay source for
        # rebuilding a crashed shard's cache bit-identically.
        self._world_windows: dict[tuple[str, int], tuple[int, int, int]] = {}
        # Columns staged by _on_batch_begin, keyed by content; values are
        # FIFO queues (two cache entries can legitimately stage the same
        # content once each after dedup).
        self._staged: dict[tuple, list[np.ndarray]] = {}
        #: Subscription names whose tick is in flight (set by the serving
        #: coordinator) — folded into ShardFailure for attributability.
        self._inflight: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _absorb(self, shard: int, reply) -> None:
        # Stitch the worker's finished span subtree under whatever span
        # issued this command (absorption runs synchronously after the
        # fan-out joins, on the coordinator's thread).
        if reply.spans:
            self.tracer.attach(reply.spans)
        if self.metrics is not None and reply.metrics:
            self.metrics.merge_delta(
                reply.metrics, self._shard_metric_seen[shard]
            )
        seen = self._shard_counters[shard]
        for key, value in reply.counters.items():
            delta = int(value) - seen.get(key, 0)
            seen[key] = int(value)
            if not delta:
                continue
            if key == "hits":
                self.worlds.hits += delta
            elif key == "partial_hits":
                self.worlds.partial_hits += delta
            elif key == "misses":
                self.worlds.misses += delta
            # "worlds_invalidated" is deliberately NOT absorbed: the
            # coordinator counts invalidations from its own window mirror
            # (see _sync_mutations), which survives worker crashes — a
            # replacement worker has a fresh shard view, sees no mutation
            # delta and would under-report the drop.
        self.shard_busy_seconds[shard] = (
            self.shard_busy_seconds.get(shard, 0.0) + reply.busy_seconds
        )

    def _request(self, shard: int, command):
        if self.tracer.enabled and hasattr(command, "trace"):
            command.trace = self.tracer.context()
        try:
            reply = self._transport.request(shard, command)
        except ShardCrashed as exc:
            raise ShardFailure(exc.shard, exc.detail, self._inflight) from exc
        self._absorb(shard, reply)
        return reply.payload

    def _broadcast(self, commands: dict[int, object]) -> dict[int, object]:
        if self.tracer.enabled:
            ctx = self.tracer.context()
            for command in commands.values():
                if hasattr(command, "trace"):
                    command.trace = ctx
        try:
            replies = self._transport.broadcast(commands)
        except ShardCrashed as exc:
            raise ShardFailure(exc.shard, exc.detail, self._inflight) from exc
        for shard, reply in replies.items():
            self._absorb(shard, reply)
        return {shard: reply.payload for shard, reply in replies.items()}

    def reset_shard_timings(self) -> None:
        for shard in self.shard_busy_seconds:
            self.shard_busy_seconds[shard] = 0.0

    # ------------------------------------------------------------------
    # mutation sync: mirror the decision to every shard
    # ------------------------------------------------------------------
    def _sync_mutations(self) -> None:
        version = self.db.version
        if version == self._mut_seen:
            return
        saved = (self._mut_seen, self.index_updates, self.worlds_invalidated)
        saved_windows = dict(self._world_windows)
        changed = self.db.changed_since(self._mut_seen)
        super()._sync_mutations()
        if changed is None:
            self._world_windows.clear()
        else:
            doomed = [k for k in self._world_windows if k[0] in changed]
            for key in doomed:
                del self._world_windows[key]
            # The mirror is 1:1 with worker cache entries, so its pop
            # count *is* the number of segments the
            # workers drop for this delta.  Counting here — instead of
            # absorbing worker counters — keeps the per-tick count correct
            # across worker crashes, where the dropped entries die with
            # the worker but the mirror remembers them.
            self.worlds_invalidated += len(doomed)
        # Broadcast even when no worker holds a delta of its own: the
        # wholesale flag must reach every shard (the coordinator's log can
        # overflow when a worker's does not), and a selective sync is a
        # cheap no-op on untouched shards.  Synchronizing *now* — at the
        # same point of the tick a single-process engine invalidates —
        # keeps per-tick ``worlds_invalidated`` deltas bit-identical.
        try:
            self._broadcast(
                {
                    shard: SyncShard(wholesale=changed is None)
                    for shard in range(self.router.n_shards)
                }
            )
        except ShardFailure:
            # A dead shard aborts the tick here — the first all-shard
            # contact — with the sync's counter deltas already consumed by
            # a report that will never be produced.  Roll the sync back so
            # the retry tick (after restart_shard) redoes it and re-reports
            # those deltas exactly like the single-process twin; the
            # structural effects (UST update, arena discard, rng-tag pops)
            # are idempotent under the redo.
            self._mut_seen, self.index_updates, self.worlds_invalidated = saved
            self._world_windows = saved_windows
            raise

    # ------------------------------------------------------------------
    # window mirroring (crash-replay bookkeeping)
    # ------------------------------------------------------------------
    def _note_window(self, object_id: str, n: int, lo: int, hi: int) -> None:
        """Mirror one worker-cache lookup's effect on its segment window.

        Same evolution rules as :meth:`WorldCache.states_for_many`: a new epoch
        (stamp mismatch) replaces the segment, a backward request
        re-anchors at the new start over the union window, anything else
        at most extends forward.
        """
        key = (object_id, int(n))
        epoch = self._draw_epoch
        cur = self._world_windows.get(key)
        lo, hi = int(lo), int(hi)
        if cur is None or cur[0] != epoch:
            self._world_windows[key] = (epoch, lo, hi)
        elif lo < cur[1]:
            self._world_windows[key] = (epoch, lo, max(hi, cur[2]))
        else:
            self._world_windows[key] = (epoch, cur[1], max(cur[2], hi))

    def _note_job_windows(self, jobs) -> None:
        for _kind, _q, times, ids, n in jobs:
            ids = list(ids)
            alive = self.db.alive_matrix(ids, times)
            for i, oid in enumerate(ids):
                row = alive[i]
                if not row.any():
                    continue
                lo, hi = self._cache_window(self.db.get(oid), times[row])
                self._note_window(oid, n, lo, hi)

    # ------------------------------------------------------------------
    # remote computation
    # ------------------------------------------------------------------
    @staticmethod
    def _staged_key(kind, query, times, ids, n) -> tuple:
        q_bytes = query.coords_at(times).tobytes() if query is not None else b""
        return (kind, q_bytes, times.tobytes(), tuple(ids), int(n))

    def _run_jobs(self, jobs: list[tuple]) -> list[np.ndarray]:
        """Fan a batch of column computations out to the owning shards.

        ``jobs`` items are ``(kind, query, times, ids, n)``.  Returns one
        assembled full ``(objects, times, worlds)`` block per job — the
        single-process engine's memory order.  On a shared-memory
        transport the coordinator allocates one segment laying every
        job's block out contiguously; each worker writes the slabs of the
        ids it owns directly into the segment, so per-shard sub-blocks are
        never pickled back.
        """
        results: list[np.ndarray] = []
        for kind, _q, times, ids, n in jobs:
            shape = (len(ids), int(times.size), int(n))
            if kind == "dist":
                results.append(np.full(shape, np.inf))
            else:
                results.append(np.full(shape, -1, dtype=np.intp))
        per_shard: dict[int, list[ComputeJob]] = {}
        for j, (kind, q, times, ids, n) in enumerate(jobs):
            for shard, cols in self.router.partition_positions(list(ids)).items():
                per_shard.setdefault(shard, []).append(
                    ComputeJob(
                        kind=kind,
                        # The wire form: evaluated coordinates, not the
                        # Query object (whose closures do not pickle).
                        query=None if q is None else q.coords_at(times),
                        times=times,
                        object_ids=tuple(ids[c] for c in cols),
                        n_samples=int(n),
                        job_index=j,
                        col_index=tuple(cols),
                    )
                )
        if not per_shard:
            return results
        epoch = self._draw_epoch
        window = self._batch_window
        shm = None
        offsets: list[int] = []
        if getattr(self._transport, "uses_shm", False):
            total = 0
            for arr in results:
                offsets.append(total)
                total += arr.nbytes
            shm = shared_memory.SharedMemory(create=True, size=max(1, total))
            for shard_jobs in per_shard.values():
                for job in shard_jobs:
                    job.shm_offset = offsets[job.job_index]
                    job.full_shape = results[job.job_index].shape
                    job.dtype = str(results[job.job_index].dtype)
        try:
            # The fan-out span collects each worker's stitched
            # "shard-sweep" child (attached during absorption); "gather"
            # times the cross-shard tensor assembly on the coordinator.
            with self.tracer.span("shard-fanout") as sp_fanout:
                payloads = self._broadcast(
                    {
                        shard: ComputeColumns(
                            epoch=epoch,
                            window=window,
                            jobs=shard_jobs,
                            shm_name=None if shm is None else shm.name,
                        )
                        for shard, shard_jobs in per_shard.items()
                    }
                )
                sp_fanout.set(shards=len(per_shard), jobs=len(jobs))
            with self.tracer.span("gather"):
                if shm is not None:
                    # Every column of every job belongs to exactly one
                    # shard, and each worker writes its whole sub-block
                    # (dead positions included), so the segment is fully
                    # populated.
                    for j, arr in enumerate(results):
                        view = np.ndarray(
                            arr.shape, dtype=arr.dtype, buffer=shm.buf,
                            offset=offsets[j],
                        )
                        arr[...] = view
                else:
                    for shard, payload in payloads.items():
                        for job, sub in zip(per_shard[shard], payload):
                            results[job.job_index][list(job.col_index)] = sub
        finally:
            if shm is not None:
                shm.close()
                shm.unlink()
        self._note_job_windows(jobs)
        return results

    def _compute_distance_tensor(
        self, object_ids: list[str], q: Query, times: np.ndarray, n: int
    ) -> np.ndarray:
        ids = tuple(object_ids)
        if not ids:
            return super()._compute_distance_tensor(list(object_ids), q, times, n)
        key = self._staged_key("dist", q, times, ids, n)
        queue = self._staged.get(key)
        if queue:
            staged = queue.pop(0)
            if not queue:
                del self._staged[key]
            return staged
        return self._run_jobs([("dist", q, times, ids, n)])[0]

    def _states_block(
        self, object_ids: list[str], times: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        ids = list(object_ids)
        alive = self.db.alive_matrix(ids, times)
        if not ids or not alive.any():
            states = np.full((len(ids), times.size, n), -1, dtype=np.intp)
            return states, alive
        key = self._staged_key("states", None, times, tuple(ids), n)
        queue = self._staged.get(key)
        if queue:
            staged = queue.pop(0)
            if not queue:
                del self._staged[key]
            return staged, alive
        return self._run_jobs([("states", None, times, tuple(ids), n)])[0], alive

    # ------------------------------------------------------------------
    # batched column staging: one fan-out round per tick
    # ------------------------------------------------------------------
    def _on_batch_begin(self, reqs: list) -> None:
        """Predict the batch's refinement columns and fetch them in one round.

        Runs the plan and filter stages per request (both deterministic
        and RNG-free; the filter result is the batch's shared one — see
        :meth:`QueryEngine.shared_filter` — so nothing is pruned again
        inside ``evaluate``) and replicates the
        refinement-cache dirty-column decision read-only, yielding exactly
        the column sets the evaluations will ask
        ``_compute_distance_tensor`` / ``_states_block`` for.  Identical
        predictions collapse (first consumer wins; a second evaluation
        sharing the cache entry won't recompute at all), so staged work
        matches single-process compute work column for column.  A
        prediction miss is harmless: the evaluation falls back to a live
        per-request fan-out.
        """
        jobs: list[tuple] = []
        keys: list[tuple] = []
        seen: set[tuple] = set()
        for req in reqs:
            try:
                plan = build_plan(req, self.n_samples)
                if plan.resolved_estimator != "sampled":
                    continue
                times = np.asarray(plan.times, dtype=np.intp)
                reverse = req.mode == "reverse_nn"
                pruning = self.filter_objects(
                    req.query, times, k=req.k, normalized=True, mode=req.mode
                )
                ids = list(pruning.influencers)
                if not ids or req.k > len(ids):
                    continue  # nothing to refine / evaluate() raises itself
                n = plan.n_samples
                needed = self._predict_columns(reverse, req, times, ids, n)
                if not needed:
                    continue
                kind = "states" if reverse else "dist"
                query = None if reverse else req.query
                key = self._staged_key(kind, query, times, tuple(needed), n)
                if key in seen:
                    continue
                seen.add(key)
                jobs.append((kind, query, times, tuple(needed), n))
                keys.append(key)
            except Exception:
                continue  # prediction must never fail a batch
        if not jobs:
            return
        for key, arr in zip(keys, self._run_jobs(jobs)):
            self._staged.setdefault(key, []).append(arr)

    def _predict_columns(self, reverse, req, times, ids, n) -> list[str]:
        """The column subset the evaluation's cache logic will recompute."""
        if self.refine_cache_size == 0:
            return ids
        if reverse:
            cache_key = ("states", req.k, times.tobytes(), tuple(ids), n)
        else:
            cache_key = (
                "dist", req.k, req.query.coords_at(times).tobytes(),
                times.tobytes(), tuple(ids), n,
            )
        entry = self._refine_cache.get(cache_key)
        stamp = (self._worlds_token, self._draw_epoch)
        if entry is None or entry["stamp"] != stamp:
            return ids
        changed = self.db.changed_since(entry["version"])
        if changed is None:
            return ids
        return [oid for oid in ids if oid in changed]

    def _on_batch_end(self) -> None:
        self._staged.clear()

    # ------------------------------------------------------------------
    # prefetch: route to owners
    # ------------------------------------------------------------------
    def prefetch_worlds(
        self,
        object_ids=None,
        window=None,
        n_samples=None,
    ) -> dict[str, int]:
        self._sync_mutations()
        ids = self.db.object_ids if object_ids is None else dict.fromkeys(object_ids)
        n = self.n_samples if n_samples is None else int(n_samples)
        targets: dict[int, list[str]] = {}
        count = 0
        for oid in ids:
            obj = self.db.get(oid)
            if window is None:
                lo, hi = obj.t_first, obj.t_last
            else:
                lo = max(obj.t_first, int(window[0]))
                hi = min(obj.t_last, int(window[1]))
            if lo > hi:
                continue
            count += 1
            targets.setdefault(self.router.shard_of(oid), []).append(oid)
            self._note_window(oid, n, lo, hi)
        before = (self.worlds.hits, self.worlds.partial_hits, self.worlds.misses)
        if targets:
            self._broadcast(
                {
                    shard: PrefetchWorlds(
                        epoch=self._draw_epoch,
                        targets=tuple(shard_ids),
                        window=None if window is None else (
                            int(window[0]), int(window[1])
                        ),
                        n_samples=n,
                    )
                    for shard, shard_ids in targets.items()
                }
            )
        return {
            "objects": count,
            "hits": self.worlds.hits - before[0],
            "partial_hits": self.worlds.partial_hits - before[1],
            "misses": self.worlds.misses - before[2],
        }
