"""The coordinator-side engine: a ``QueryEngine`` whose sampling is remote.

:class:`ShardedQueryEngine` subclasses the single-process engine and
replaces its refinement seam, nothing else: :meth:`fill_blocks` (each
block's columns are computed by the shards owning them and come home in
their replies),
:meth:`fetch_worlds` (segments are warmed where they live),
:meth:`sync_mutations` (the invalidation decision is mirrored to every
shard) and the :meth:`_staging` batch hook (one fan-out round per tick).
All planning, filtering (the UST-tree runs over the *full* database, so
candidate and influence sets are globally identical to single-process
evaluation), refine caching, thresholding and monitoring logic above
that seam is inherited unchanged, which is the whole correctness
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
happens on exactly one worker, and each reply carries the worker
registry's cumulative snapshot, whose delta the coordinator merges
(:meth:`~repro.obs.MetricsRegistry.merge_delta`, the one absorption
path).  A staged block's lookups come home with its slab and are held
back from reports until the evaluation that consumes the block takes it.
The invalidation count is not merged: the coordinator derives it from
its own segment window mirror, which (unlike a crashed worker's cache)
survives worker restarts.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..core.evaluator import QueryEngine
from ..core.refine import RefineJob
from .protocol import (
    ComputeColumns,
    ComputeJob,
    ShardCrashed,
    ShardFailure,
    SyncShard,
    WarmWorlds,
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
        # Last-seen cumulative metrics snapshots per shard; absorption
        # merges deltas (see MetricsRegistry.merge_delta), and a restarted
        # shard's baseline is reset.
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
        # Blocks fetched ahead by _staging, by ``RefineJob.key``, each with
        # the world-cache lookups its fill made.
        self._staged: dict[tuple, tuple[np.ndarray, list[int]]] = {}
        #: Subscription names whose tick is in flight (set by the serving
        #: coordinator) — folded into ShardFailure for attributability.
        self._inflight: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    def _absorb(self, shard: int, reply) -> None:
        # Stitch the worker's finished span subtree under whatever span
        # issued this command (absorption runs on the coordinator's
        # thread once every reply of the round is in).
        if reply.spans:
            self.tracer.attach(reply.spans)
        # The invalidation count is this engine's own (see sync_mutations).
        self.metrics.merge_delta(
            {k: v for k, v in reply.metrics.items() if k != "worlds_invalidated_total"},
            self._shard_metric_seen[shard],
        )
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
    def sync_mutations(self, wholesale: bool = False) -> None:
        if self.db.version == self._mut_seen and not wholesale:
            return
        saved = (self._mut_seen, self.index_updates.value, self.worlds_invalidated.value)
        saved_windows = dict(self._world_windows)
        changed = None if wholesale else self.db.changed_since(self._mut_seen)
        super().sync_mutations(wholesale=changed is None)
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
            self.worlds_invalidated.inc(len(doomed))
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
            self._mut_seen, self.index_updates.value, self.worlds_invalidated.value = saved
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

    def replay_shard(self, shard: int) -> dict[str, int]:
        """Re-draw a restarted worker's world segments from the mirror.

        Forgets the lost worker's last-seen counters (the replacement's
        start from zero; totals absorbed before the crash stay) and warms
        exactly the segments mirrored for the monitoring epoch.  Objects
        with mutations this engine has not synced yet are left out: the
        next tick invalidates and redraws them (the mirror still counts the
        drop), exactly as on a worker that never died — and when that sync
        will be wholesale, nothing is replayable.
        """
        self._shard_metric_seen[shard] = {}
        epoch = self._draw_epoch if self._last_batch_epoch is None else self._last_batch_epoch
        pending = self.db.changed_since(self._mut_seen)
        items = () if pending is None else tuple(
            (oid, n, lo, hi)
            for (oid, n), (win_epoch, lo, hi) in sorted(self._world_windows.items())
            if win_epoch == epoch
            and self.router.shard_of(oid) == shard
            and oid not in pending
        )
        if not items:
            return {"restored": 0}
        return self._request(shard, WarmWorlds(epoch=epoch, items=items))

    # ------------------------------------------------------------------
    # the refinement seam, remote
    # ------------------------------------------------------------------
    def fetch_worlds(self, items) -> list:
        targets: dict[int, list] = {}
        for oid, n, lo, hi in items:
            targets.setdefault(self.router.shard_of(oid), []).append((oid, n, lo, hi))
            self._note_window(oid, n, lo, hi)
        self._broadcast(
            {
                shard: WarmWorlds(epoch=self._draw_epoch, items=tuple(shard_items))
                for shard, shard_items in targets.items()
            }
        )
        return []

    def fill_blocks(self, jobs: list[RefineJob]) -> list[np.ndarray]:
        """Blocks fetched ahead by :meth:`_staging` are handed over once —
        releasing their held-back lookups to the consuming evaluation's
        report; the columns still missing fan out to the owning shards in
        one round."""
        results, todo = [], []
        for j, job in enumerate(jobs):
            block, missing = self._take_staged(job)
            results.append(block)
            if missing:
                todo.append((j, missing))
        fetched = self._fan_out([jobs[j].columns(missing) for j, missing in todo])[0]
        for (j, missing), sub in zip(todo, fetched):
            if results[j] is None:
                results[j] = sub
            else:
                results[j][missing] = sub
        return results

    def _take_staged(self, job: RefineJob) -> tuple[np.ndarray | None, list[int]]:
        """The staged block for ``job`` and the positions it still lacks.

        Besides the job's own block, a block staged for a *subset* of its
        columns serves: the staging predicted a refine-cache patch of the
        stale columns, and the cache (full at a small capacity) evicted the
        entry before this evaluation came, so the whole block is asked for.
        Its columns' lookups happened once, as a single process makes them.
        """
        every = list(range(len(job.object_ids)))
        key = job.key
        if key not in self._staged:
            ids = set(job.object_ids)
            key = next(
                (
                    k
                    for k in self._staged
                    if k[:3] == job.key[:3] and k[4] == job.n and ids.issuperset(k[3])
                ),
                None,
            )
            if key is None:
                return None, every
        staged, lookups = self._staged.pop(key)
        for i, n in enumerate(lookups):
            self._lookups_ahead[i] -= n
        if key == job.key:
            return staged, []
        block = job.empty()
        have = [job.object_ids.index(oid) for oid in key[3]]
        block[have] = staged
        return block, sorted(set(every) - set(have))

    def _fan_out(self, jobs: list[RefineJob]) -> tuple[list[np.ndarray], list[list[int]]]:
        """Fill ``jobs`` on the shards owning their columns, in one round.

        Each worker returns the object slabs of the ids it owns in its
        reply, each with the world-cache lookups its fill made; the slabs
        are scattered here into the blocks' ``(objects, times, worlds)``
        layout.  Returns the blocks and each job's ``[hits, partial hits,
        misses]``.
        """
        blocks = [job.empty() for job in jobs]
        lookups = [[0, 0, 0] for _ in jobs]
        per_shard: dict[int, list[ComputeJob]] = {}
        for j, job in enumerate(jobs):
            for shard, cols in self.router.partition_positions(job.object_ids).items():
                per_shard.setdefault(shard, []).append(
                    ComputeJob(**vars(job.columns(cols)), job_index=j, col_index=tuple(cols))
                )
        if not per_shard:
            return blocks, lookups
        # The fan-out span collects each worker's stitched "shard-sweep"
        # child (attached during absorption); "gather" times the
        # cross-shard tensor assembly on the coordinator.
        with self.tracer.span("shard-fanout") as sp_fanout:
            payloads = self._broadcast(
                {
                    shard: ComputeColumns(
                        epoch=self._draw_epoch,
                        window=self._batch_window,
                        jobs=shard_jobs,
                    )
                    for shard, shard_jobs in per_shard.items()
                }
            )
            sp_fanout.set(shards=len(per_shard), jobs=len(jobs))
        with self.tracer.span("gather"):
            for shard, payload in payloads.items():
                for job, (sub, counts) in zip(per_shard[shard], payload):
                    blocks[job.job_index][list(job.col_index)] = sub
                    for i, n in enumerate(counts):
                        lookups[job.job_index][i] += n
        for job in jobs:
            alive, live = self._live_columns(job.object_ids, job.times)
            for c in live:
                oid = job.object_ids[c]
                lo, hi = self._cache_window(self.db.get(oid), job.times[alive[c]])
                self._note_window(oid, job.n, lo, hi)
        return blocks, lookups

    @contextmanager
    def _staging(self, reqs: list):
        """Fetch the blocks the batch will ask for in one fan-out round.

        Runs the plan and filter stages per request (both deterministic
        and RNG-free; the filter result is the batch's shared one — see
        :meth:`QueryEngine.shared_filter` — so nothing is pruned again
        inside ``evaluate``) and asks the refine cache which columns a
        lookup would recompute, yielding exactly the jobs the evaluations
        will hand :meth:`fill_blocks`.  Identical jobs collapse (the first
        consumer wins), so staged work matches single-process compute work
        column for column.  A prediction miss is harmless: the evaluation
        falls back to a live per-request fan-out.
        """
        if self._batch_depth > 1:  # a nested batch rides the outer one's round
            yield
            return
        # Invalidate before any window is noted: without pruning the filter
        # never syncs, and a re-added object's fresh window would be counted
        # as a dropped one.
        self.sync_mutations()
        jobs: dict[tuple, RefineJob] = {}
        for req in reqs:
            try:
                job = self._fill_job(req)
            except Exception:
                continue  # prediction must never fail a batch (evaluate() raises itself)
            if job is not None and job.object_ids:
                jobs.setdefault(job.key, job)
        try:
            if jobs:
                blocks, lookups = self._fan_out(list(jobs.values()))
                self._staged = dict(zip(jobs, zip(blocks, lookups)))
                self._lookups_ahead = [sum(col) for col in zip(*lookups)]
            yield
        finally:
            self._staged.clear()
            self._lookups_ahead = [0, 0, 0]
