"""Transports: how protocol commands reach shard workers.

Two implementations behind one duck-typed interface (``request``,
``broadcast``, ``restart``, ``close``, ``uses_shm``):

* :class:`InlineTransport` holds :class:`ShardWorkerState` objects
  in-process and calls their handlers directly.  Deterministic, fast and
  debuggable — the cross-shard lockstep suite runs the full shard-count ×
  backend matrix through it, exercising every protocol path
  except OS-level transport (pipes, shared memory, process death).
* :class:`ProcessTransport` spawns one worker process per shard
  (``spawn`` start method — fork is unsafe under threads/BLAS), speaks
  pickled commands over pipes, fans broadcasts out concurrently through a
  persistent asyncio loop, and lets workers write sampled columns into
  coordinator-allocated shared memory (``uses_shm``) so world tensors are
  gathered without pickling.

Both translate worker death into :class:`ShardCrashed` — a timeout, a
broken pipe or an explicit :class:`CrashWorker` — which the sharded
engine wraps into the user-facing :class:`ShardFailure`.  Handler
*errors* (the worker survives) surface as ``RuntimeError`` with the
worker traceback instead: a bug is not a crash.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from .protocol import (
    CrashWorker,
    ErrorReply,
    ShardCrashed,
    Shutdown,
    WorkerConfig,
)
from .worker import ShardWorkerState, worker_main

__all__ = ["InlineTransport", "ProcessTransport"]


class InlineTransport:
    """Direct in-process dispatch to :class:`ShardWorkerState` objects."""

    uses_shm = False

    def __init__(self, configs: dict[int, WorkerConfig]) -> None:
        self._workers = {
            shard: ShardWorkerState(config) for shard, config in configs.items()
        }
        self._dead: set[int] = set()
        #: Cumulative per-shard request round-trip time (observability:
        #: round trip minus the reply's ``busy_seconds`` is the transport
        #: overhead — zero-ish inline, pickling + pipes in process mode).
        self.roundtrip_seconds: dict[int, float] = {s: 0.0 for s in configs}

    def worker(self, shard: int) -> ShardWorkerState:
        """The live worker state (test introspection hook)."""
        return self._workers[shard]

    def request(self, shard: int, command):
        if shard in self._dead:
            raise ShardCrashed(shard, "worker process is dead")
        if isinstance(command, CrashWorker):
            self._dead.add(shard)
            raise ShardCrashed(shard, "worker crashed (CrashWorker hook)")
        t0 = perf_counter()
        reply = self._workers[shard].handle(command)
        self.roundtrip_seconds[shard] = (
            self.roundtrip_seconds.get(shard, 0.0) + perf_counter() - t0
        )
        return reply

    def broadcast(self, commands: dict[int, object]) -> dict[int, object]:
        replies = {}
        crashed: ShardCrashed | None = None
        for shard in sorted(commands):
            try:
                replies[shard] = self.request(shard, commands[shard])
            except ShardCrashed as exc:
                crashed = crashed or exc
        if crashed is not None:
            raise crashed
        return replies

    def restart(self, shard: int, config: WorkerConfig) -> None:
        self._workers[shard] = ShardWorkerState(config)
        self._dead.discard(shard)

    def close(self) -> None:
        self._workers.clear()
        self._dead.clear()


class ProcessTransport:
    """One spawned worker process per shard, pipes + shared memory."""

    uses_shm = True

    def __init__(
        self, configs: dict[int, WorkerConfig], timeout: float = 120.0
    ) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._timeout = float(timeout)
        self._procs: dict[int, multiprocessing.Process] = {}
        self._conns: dict[int, object] = {}
        #: Cumulative per-shard request round-trip time (see
        #: :class:`InlineTransport`); each shard is only ever touched by
        #: the one fan-out thread carrying its request, so plain float
        #: accumulation is safe.
        self.roundtrip_seconds: dict[int, float] = {s: 0.0 for s in configs}
        for shard, config in sorted(configs.items()):
            self._start(shard, config)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(configs)), thread_name_prefix="serve-io"
        )
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop", daemon=True
        )
        self._loop_thread.start()

    def _start(self, shard: int, config: WorkerConfig) -> None:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child, config),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[shard] = proc
        self._conns[shard] = parent

    def request(self, shard: int, command):
        conn = self._conns[shard]
        proc = self._procs[shard]
        t0 = perf_counter()
        try:
            conn.send(command)
            if isinstance(command, CrashWorker):
                proc.join(self._timeout)
                raise ShardCrashed(shard, "worker crashed (CrashWorker hook)")
            if not conn.poll(self._timeout):
                alive = proc.is_alive()
                raise ShardCrashed(
                    shard,
                    f"no reply within {self._timeout:.0f}s "
                    f"(process {'alive but stuck' if alive else 'dead'})",
                )
            reply = conn.recv()
        except ShardCrashed:
            raise
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ShardCrashed(
                shard, f"{type(exc).__name__}: {exc or 'connection lost'}"
            ) from exc
        if isinstance(reply, ErrorReply):
            raise RuntimeError(
                f"shard {shard} handler failed (worker survives):\n{reply.error}"
            )
        self.roundtrip_seconds[shard] = (
            self.roundtrip_seconds.get(shard, 0.0) + perf_counter() - t0
        )
        return reply

    def broadcast(self, commands: dict[int, object]) -> dict[int, object]:
        if len(commands) <= 1:
            return {
                shard: self.request(shard, command)
                for shard, command in commands.items()
            }

        async def _gather():
            loop = asyncio.get_running_loop()
            futures = {
                shard: loop.run_in_executor(
                    self._pool, self.request, shard, command
                )
                for shard, command in sorted(commands.items())
            }
            replies: dict[int, object] = {}
            errors: list[BaseException] = []
            # Await every shard even after a failure: survivors finish
            # their in-flight work (and their pipes stay message-aligned)
            # before the failure propagates.
            for shard, future in futures.items():
                try:
                    replies[shard] = await future
                except BaseException as exc:
                    errors.append(exc)
            if errors:
                for exc in errors:
                    if isinstance(exc, ShardCrashed):
                        raise exc
                raise errors[0]
            return replies

        return asyncio.run_coroutine_threadsafe(_gather(), self._loop).result()

    def restart(self, shard: int, config: WorkerConfig) -> None:
        proc = self._procs.get(shard)
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(5.0)
        conn = self._conns.pop(shard, None)
        if conn is not None:
            conn.close()
        self._start(shard, config)

    def close(self) -> None:
        for shard, conn in list(self._conns.items()):
            try:
                conn.send(Shutdown())
            except (BrokenPipeError, OSError):
                pass
        for shard, proc in list(self._procs.items()):
            proc.join(5.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(1.0)
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        self._conns.clear()
        self._procs.clear()
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(5.0)
        self._pool.shutdown(wait=False)
