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
refinement seam only — :meth:`~QueryEngine.sync_mutations` at the start
of every command (with the coordinator's ``wholesale`` flag), and
:meth:`~QueryEngine.fill_blocks` on the world items and the share of
each block's columns it owns (the filled slabs are the reply's payload)
— and never touches the UST-tree: filtering is global and runs on the
coordinator, so index counters live in exactly one place.
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
    WorkerConfig,
)

__all__ = ["ShardWorkerState", "worker_main"]


class ShardWorkerState:
    """The per-shard engine plus its command handlers."""

    #: Worker-side span name per command type (the coordinator's trace
    #: shows these stitched under the span that issued the command).
    SPAN_NAMES = {
        "ApplyEvents": "shard-ingest",
        "ComputeColumns": "shard-sweep",
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
        if not isinstance(command, (ApplyEvents, ComputeColumns)):
            raise TypeError(
                f"shard {self.shard}: unknown command {type(command).__name__}"
            )
        # The coordinator's invalidation decision rides every command.
        engine.sync_mutations(wholesale=command.wholesale)
        if isinstance(command, ApplyEvents):
            result = self.stream.apply(command.events)
            return {"applied": result.applied, "dirty": sorted(result.dirty)}
        # Sync, then one fill whose world lookup also warms the items: each
        # slab comes home with the lookups its fill made, so the
        # coordinator's Stage can charge them to the evaluation that reads
        # the block.
        items = [item for item in command.items if item[0] in engine.db]
        with engine.held_batch(command.epoch, command.window):
            blocks, lookups = engine.fill_blocks(command.jobs, warm=items)
        return len(items), list(zip(blocks, lookups))


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
