"""The coordinator-side engine: a ``QueryEngine`` whose sampling is remote.

:class:`ShardedQueryEngine` subclasses the single-process engine and
replaces its two-method refinement seam, nothing else: :meth:`fill_blocks`
(the block columns and world items of a :meth:`~QueryEngine.stage` go to
the shards owning them in one round, and the slabs come home in their
replies; with no jobs — :meth:`~QueryEngine.prefetch_worlds` — segments
are warmed where they live) and :meth:`sync_mutations` (the invalidation
decision is mirrored to every shard).  All planning, filtering (the
UST-tree runs over the *full* database, so candidate and influence sets
are globally identical to single-process evaluation), staging, refine
caching, thresholding and monitoring logic above that seam is inherited
unchanged, which is the whole correctness argument: the sharded system
runs literally the same code everywhere except that each object's worlds
are drawn inside its owning shard worker.

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
* invalidation **timing** is mirrored by the flag on commands: whenever
  the coordinator engine syncs a mutation delta it owes every shard its
  decision (selective vs wholesale), and the next command each shard
  receives carries it as ``wholesale``; a worker syncs at the start of
  every command, before it applies, looks up or draws anything, so its
  caches flush before any lookup a single-process cache would make after
  the same flush.

Reuse accounting folds back losslessly because the world cache
partitions by object: every lookup a single-process engine would perform
happens on exactly one worker, and each reply carries the worker
registry's cumulative snapshot, whose delta the coordinator merges
(:meth:`~repro.obs.MetricsRegistry.merge_delta`, the one absorption
path).  A staged block's lookups come home with its slab and travel in
the returned ``Stage`` to the report of the evaluation that reads it.
The invalidation count is not merged: the coordinator derives it from
its own segment window mirror, which (unlike a crashed worker's cache)
survives worker restarts.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core.evaluator import QueryEngine
from ..core.refine import RefineJob
from .protocol import ComputeColumns, ComputeJob, ShardCrashed, ShardFailure
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
        # Shards owed a wholesale flag: a sync decided one, and their next
        # command has not carried it yet.
        self._owed_wholesale: set[int] = set()
        # What a sync of the serving tick in flight consumed, to put back
        # if the tick fails (see tick_scope).
        self._sync_undo: tuple | None = None
        #: Subscription names whose tick is in flight (set by
        #: :meth:`tick_scope`) — folded into ShardFailure for
        #: attributability.
        self._inflight: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # transport plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def tick_scope(self, subscriptions=()):
        """One serving tick: names the in-flight ``subscriptions`` in a
        :class:`ShardFailure`, and is the span a sync can be rolled back
        in.

        A dead shard aborts the tick at its first contact — for a tick
        with events the all-shard ``ApplyEvents`` round, which precedes
        the sync; otherwise the staging round, which follows it, with the
        sync's counter deltas already consumed by a report that will never
        be produced.  Such a failure rolls the sync back, so the retry tick
        (after ``restart_shard``) redoes it and re-reports those deltas
        exactly like the single-process twin; the structural effects (UST
        update, arena discard, rng-tag pops) are idempotent under the redo.
        """
        self._inflight = tuple(subscriptions)
        self._sync_undo = None
        try:
            yield
        finally:
            self._inflight = ()
            self._sync_undo = None

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

    def _send(self, commands: dict[int, object], transport_call) -> dict:
        """One round: stamp each command with its shard's owed flag (and
        the trace context), send it through ``transport_call``, absorb the
        replies."""
        ctx = self.tracer.context() if self.tracer.enabled else None
        for shard, command in commands.items():
            if hasattr(command, "wholesale"):
                command.wholesale = shard in self._owed_wholesale
            if ctx is not None and hasattr(command, "trace"):
                command.trace = ctx
        try:
            replies = transport_call(commands)
        except ShardCrashed as exc:
            undo, self._sync_undo = self._sync_undo, None
            if undo is not None:
                (
                    self._mut_seen,
                    self.index_updates.value,
                    self.worlds_invalidated.value,
                    self._world_windows,
                    self._owed_wholesale,
                ) = undo
            raise ShardFailure(exc.shard, exc.detail, self._inflight) from exc
        self._owed_wholesale.difference_update(commands)
        for shard, reply in replies.items():
            self._absorb(shard, reply)
        return {shard: reply.payload for shard, reply in replies.items()}

    def _request(self, shard: int, command):
        request = self._transport.request
        return self._send({shard: command}, lambda c: {shard: request(shard, c[shard])})[shard]

    def _broadcast(self, commands: dict[int, object]) -> dict[int, object]:
        return self._send(commands, self._transport.broadcast)

    def reset_shard_timings(self) -> None:
        for shard in self.shard_busy_seconds:
            self.shard_busy_seconds[shard] = 0.0

    # ------------------------------------------------------------------
    # mutation sync: mirror the decision to every shard
    # ------------------------------------------------------------------
    def sync_mutations(self, wholesale: bool = False) -> None:
        """Sync the coordinator's own structures and owe every shard the
        decision: a wholesale one rides each shard's next command as
        ``wholesale=True`` (the coordinator's log can overflow when a
        worker's does not); a selective one needs no flag, as workers
        sync their own delta at the start of every command — before
        anything a single-process engine would do after the same sync."""
        if self.db.version == self._mut_seen and not wholesale:
            return
        if self._sync_undo is None:
            self._sync_undo = (
                self._mut_seen,
                self.index_updates.value,
                self.worlds_invalidated.value,
                dict(self._world_windows),
                set(self._owed_wholesale),
            )
        changed = None if wholesale else self.db.changed_since(self._mut_seen)
        super().sync_mutations(wholesale=changed is None)
        if changed is None:
            self._world_windows.clear()
            self._owed_wholesale = set(range(self.router.n_shards))
        else:
            doomed = [k for k in self._world_windows if k[0] in changed]
            for key in doomed:
                del self._world_windows[key]
            # The mirror is 1:1 with worker cache entries, so its pop
            # count *is* the number of segments the workers drop for this
            # delta.  Counting here — instead of absorbing worker counters
            # — keeps the per-tick count correct across worker crashes,
            # where the dropped entries die with the worker but the mirror
            # remembers them.
            self.worlds_invalidated.inc(len(doomed))

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
        exactly the segments mirrored for the monitoring epoch — the
        staging command with no jobs.  Objects with mutations this engine
        has not synced yet are left out: the next tick invalidates and
        redraws them (the mirror still counts the drop), exactly as on a
        worker that never died — and when that sync will be wholesale,
        nothing is replayable.
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
        restored, _ = self._request(shard, ComputeColumns(epoch=epoch, window=None, items=items))
        return {"restored": restored}

    # ------------------------------------------------------------------
    # the refinement seam, remote
    # ------------------------------------------------------------------
    def fill_blocks(self, jobs: list[RefineJob], warm=()):
        """A stage's fill in one round: each shard gets one
        :class:`ComputeColumns` with its live columns of every job and the
        ``warm`` items it owns that no column looks up, and its worker
        fills them with one world lookup (:meth:`QueryEngine.fill_blocks`).

        Each worker returns the object slabs of the ids it owns in its
        reply, each with the world-cache lookups its fill made; the slabs
        are scattered here into the blocks' ``(objects, times, worlds)``
        layout (dead columns are filled here).  Returns the blocks and
        each job's ``[hits, partial hits, misses]``.
        """
        blocks = [job.empty() for job in jobs]
        lookups = [[0, 0, 0] for _ in jobs]
        columns = []  # each live column's world item, as the worker looks it up
        per_shard: dict[int, list[ComputeJob]] = {}
        for j, (job, (alive, live)) in enumerate(zip(jobs, self._live_columns(jobs))):
            live_ids = [job.object_ids[c] for c in live]
            for c, oid in zip(live, live_ids):
                window = self._cache_window(self.db.get(oid), job.times[alive[c]])
                columns.append((oid, job.n, *window))
            for shard, at in self.router.partition_positions(live_ids).items():
                per_shard.setdefault(shard, []).append(
                    ComputeJob(
                        job.kind, job.coords, job.times, tuple(live_ids[i] for i in at), job.n,
                        job_index=j, col_index=tuple(int(live[i]) for i in at),
                    )
                )
        looked_up = set(columns)
        warm = [item for item in warm if item not in looked_up]
        items: dict[int, list] = {}
        for item in warm:
            items.setdefault(self.router.shard_of(item[0]), []).append(item)
        shards = sorted(set(items) | set(per_shard))
        if not shards:
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
                        items=tuple(items.get(shard, ())),
                        jobs=per_shard.get(shard, []),
                    )
                    for shard in shards
                }
            )
            sp_fanout.set(shards=len(shards), jobs=len(jobs))
        with self.tracer.span("gather"):
            for shard, (_, filled) in payloads.items():
                for job, (sub, counts) in zip(per_shard.get(shard, ()), filled):
                    blocks[job.job_index][list(job.col_index)] = sub
                    for i, n in enumerate(counts):
                        lookups[job.job_index][i] += n
        # The workers looked the columns up first, then the warm items.
        for item in columns + warm:
            self._note_window(*item)
        return blocks, lookups
