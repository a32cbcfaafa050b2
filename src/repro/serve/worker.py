"""Shard worker: one engine over one shard view, driven by commands.

:class:`ShardWorkerState` is the transport-agnostic worker — the inline
transport calls :meth:`ShardWorkerState.handle` directly in-process (the
lockstep test surface), while :func:`worker_main` wraps the same state in
a pipe-served loop for spawned processes.  The worker's engine is built
with the coordinator's seed (identical root world entropy), a shard view
of the database and the coordinator's engine options unchanged: it draws
every world inside :meth:`QueryEngine.held_batch` under the epoch and
window the command carries, and never reaches the coordinator-side
refine cache.  The worker drives it through the engine's public
refinement seam only —
:meth:`~QueryEngine.sync_mutations`, :meth:`~QueryEngine.fill_blocks`
on its share of each block's columns (the filled slabs are the reply's
payload), :meth:`~QueryEngine.fetch_worlds` — and never touches the
UST-tree: filtering is global and runs on the coordinator, so index
counters live in exactly one place.
"""

from __future__ import annotations

import os
import traceback
from time import perf_counter

from ..core.evaluator import QueryEngine
from ..obs.tracing import NULL_TRACER, Tracer
from ..stream.ingest import ObservationStream
from .protocol import (
    ApplyEvents,
    ComputeColumns,
    CrashWorker,
    ErrorReply,
    Reply,
    Shutdown,
    SyncShard,
    WarmWorlds,
    WorkerConfig,
)

__all__ = ["ShardWorkerState", "worker_main"]


class ShardWorkerState:
    """The per-shard engine plus its command handlers."""

    #: Worker-side span name per command type (the coordinator's trace
    #: shows these stitched under the span that issued the command).
    SPAN_NAMES = {
        "ApplyEvents": "shard-ingest",
        "SyncShard": "shard-sync",
        "ComputeColumns": "shard-sweep",
        "WarmWorlds": "shard-warm",
    }

    def __init__(self, config: WorkerConfig) -> None:
        self.shard = int(config.shard)
        self.n_shards = int(config.n_shards)
        self.db = config.db
        kwargs = dict(config.engine_kwargs)
        # The seed rides the config, and per-process objects never do: the
        # worker's engine holds its own registry, and a recording tracer
        # when the config asks for one.
        for key in ("rng", "tracer", "metrics", "slow_log"):
            kwargs.pop(key, None)
        self.tracer = (
            Tracer(id_prefix=f"shard{self.shard}") if config.telemetry else NULL_TRACER
        )
        self.engine = QueryEngine(self.db, seed=config.seed, tracer=self.tracer, **kwargs)
        self._busy = self.engine.metrics.counter(
            "shard_busy_seconds",
            help="Cumulative command-handler busy time, per shard.",
            labels={"shard": str(self.shard)},
        )
        self.stream = ObservationStream(self.db)

    def handle(self, command) -> Reply:
        t0 = perf_counter()
        spans: list = []
        if self.tracer.enabled:
            name = self.SPAN_NAMES.get(
                type(command).__name__, type(command).__name__.lower()
            )
            with self.tracer.remote_span(
                name, getattr(command, "trace", None), shard=self.shard
            ) as span:
                payload = self._dispatch(command)
            spans = [span.to_dict()]
        else:
            payload = self._dispatch(command)
        busy = perf_counter() - t0
        self._busy.inc(busy)
        return Reply(
            payload=payload,
            busy_seconds=busy,
            spans=spans,
            metrics=self.engine.metrics.snapshot(),
        )

    def _dispatch(self, command):
        engine = self.engine
        if isinstance(command, ApplyEvents):
            result = self.stream.apply(command.events)
            return {"applied": result.applied, "dirty": sorted(result.dirty)}
        if isinstance(command, SyncShard):
            engine.sync_mutations(wholesale=command.wholesale)
            return None
        if isinstance(command, ComputeColumns):
            # Each slab comes home with the world-cache lookups its fill
            # made, so the coordinator can charge them to the evaluation
            # that consumes the block.
            engine.sync_mutations()
            lookups = (engine.worlds.hits, engine.worlds.partial_hits, engine.worlds.misses)
            out = []
            with engine.held_batch(command.epoch, command.window):
                for job in command.jobs:
                    before = [counter.value for counter in lookups]
                    (slab,) = engine.fill_blocks([job])
                    out.append((slab, [c.value - b for c, b in zip(lookups, before)]))
            return out
        if isinstance(command, WarmWorlds):
            engine.sync_mutations()
            items = [item for item in command.items if item[0] in engine.db]
            with engine.held_batch(command.epoch):
                engine.fetch_worlds(items)
            return {"restored": len(items)}
        raise TypeError(
            f"shard {self.shard}: unknown command {type(command).__name__}"
        )


def worker_main(conn, config: WorkerConfig) -> None:
    """Pipe-served worker loop (the spawned-process entry point)."""
    state = ShardWorkerState(config)
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            return
        if isinstance(command, Shutdown):
            try:
                conn.send(Reply())
            except (BrokenPipeError, OSError):
                pass
            return
        if isinstance(command, CrashWorker):
            os._exit(13)  # simulate a hard worker death (no reply, no cleanup)
        try:
            reply = state.handle(command)
        except BaseException:
            # A handler error is not a crash: report it and keep serving.
            try:
                conn.send(ErrorReply(error=traceback.format_exc()))
            except (BrokenPipeError, OSError):
                return
            continue
        conn.send(reply)
