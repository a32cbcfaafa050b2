"""Transports: how protocol commands reach shard workers.

Two implementations behind one duck-typed interface (``request``,
``broadcast``, ``restart``, ``close``):

* :class:`InlineTransport` holds :class:`ShardWorkerState` objects
  in-process and calls their handlers directly.  Deterministic, fast and
  debuggable — the cross-shard lockstep suite runs the full shard-count ×
  backend matrix through it, exercising every protocol path
  except OS-level transport (pipes, process death).
* :class:`ProcessTransport` spawns one worker process per shard
  (``spawn`` start method — fork is unsafe under threads/BLAS) and speaks
  pickled commands over pipes, all on the calling thread: a broadcast
  sends every command before it reads any reply, so the workers compute
  concurrently, and every result — sampled world blocks included — comes
  home in its reply.

Both translate worker death into :class:`ShardCrashed` — a timeout, a
broken pipe or an explicit :class:`CrashWorker` — which the sharded
engine wraps into the user-facing :class:`ShardFailure`.  Handler
*errors* (the worker survives) surface as ``RuntimeError`` with the
worker traceback instead: a bug is not a crash.
"""

from __future__ import annotations

import multiprocessing
from time import monotonic

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

    def __init__(self, configs: dict[int, WorkerConfig]) -> None:
        self._workers = {
            shard: ShardWorkerState(config) for shard, config in configs.items()
        }
        self._dead: set[int] = set()

    def worker(self, shard: int) -> ShardWorkerState:
        """The live worker state (test introspection hook)."""
        return self._workers[shard]

    def request(self, shard: int, command):
        if shard in self._dead:
            raise ShardCrashed(shard, "worker process is dead")
        if isinstance(command, CrashWorker):
            self._dead.add(shard)
            raise ShardCrashed(shard, "worker crashed (CrashWorker hook)")
        return self._workers[shard].handle(command)

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
    """One spawned worker process per shard, spoken to over pipes."""

    def __init__(
        self, configs: dict[int, WorkerConfig], timeout: float = 120.0
    ) -> None:
        self._ctx = multiprocessing.get_context("spawn")
        self._timeout = float(timeout)
        self._procs: dict[int, multiprocessing.Process] = {}
        self._conns: dict[int, object] = {}
        try:
            for shard, config in sorted(configs.items()):
                self._start(shard, config)
        except BaseException:
            self.close()
            raise

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
        return self.broadcast({shard: command})[shard]

    def broadcast(self, commands: dict[int, object]) -> dict[int, object]:
        """Send every command, then collect every reply on this thread.

        The workers are separate processes, so they compute concurrently
        while the replies are read one pipe at a time.  All replies share
        one deadline, ``timeout`` after the first send: a stuck shard costs
        one timeout, not one per shard.  Every shard's reply is read even
        after another shard failed, so the survivors' pipes stay
        message-aligned; a crash outranks a handler error.
        """
        deadline = monotonic() + self._timeout
        failures: list[Exception] = []
        sent = []
        for shard, command in sorted(commands.items()):
            try:
                self._conns[shard].send(command)
                sent.append(shard)
            except OSError as exc:
                failures.append(_lost(shard, exc))
        replies = {}
        for shard in sent:
            try:
                replies[shard] = self._receive(shard, commands[shard], deadline)
            except Exception as exc:
                failures.append(exc)
        if failures:
            raise next(
                (exc for exc in failures if isinstance(exc, ShardCrashed)),
                failures[0],
            )
        return replies

    def _receive(self, shard: int, command, deadline: float):
        conn = self._conns[shard]
        proc = self._procs[shard]
        remaining = max(0.0, deadline - monotonic())
        if isinstance(command, CrashWorker):
            proc.join(remaining)
            raise ShardCrashed(shard, "worker crashed (CrashWorker hook)")
        try:
            if not conn.poll(remaining):
                alive = proc.is_alive()
                raise ShardCrashed(
                    shard,
                    f"no reply within {self._timeout:.0f}s "
                    f"(process {'alive but stuck' if alive else 'dead'})",
                )
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            raise _lost(shard, exc) from exc
        if isinstance(reply, ErrorReply):
            raise RuntimeError(
                f"shard {shard} handler failed (worker survives):\n{reply.error}"
            )
        return reply

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


def _lost(shard: int, exc: BaseException) -> ShardCrashed:
    return ShardCrashed(shard, f"{type(exc).__name__}: {exc or 'connection lost'}")
