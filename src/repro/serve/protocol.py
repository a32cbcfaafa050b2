"""The coordinator ↔ shard-worker wire protocol.

Plain picklable dataclasses: the same command objects drive both the
in-process transport (direct calls — the lockstep test surface) and the
multi-process transport (pickled over pipes).  Every reply carries the
worker registry's cumulative snapshot and the handler's busy time, so
the coordinator can fold per-shard reuse accounting and stage timings
into the single-process report format without extra round trips.

Two commands do the work: :class:`ApplyEvents` (a tick's ingest) and
:class:`ComputeColumns` (its staging pass: world lookups and block
columns together).  Each carries the ``wholesale`` flag of the
coordinator's mutation sync, so invalidation needs no round of its own:
a worker syncs its engine at the start of every command.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.refine import RefineJob

__all__ = [
    "WorkerConfig",
    "ApplyEvents",
    "ComputeJob",
    "ComputeColumns",
    "CrashWorker",
    "Shutdown",
    "Reply",
    "ErrorReply",
    "ShardCrashed",
    "ShardFailure",
]


@dataclass
class WorkerConfig:
    """Everything needed to (re)build one shard worker.

    ``db`` is a shard view (see
    :meth:`~repro.trajectory.database.TrajectoryDatabase.shard_view`);
    ``seed`` must equal the coordinator engine's seed — both derive the
    same root world entropy from it, which is what makes worker-sampled
    worlds bit-identical to single-process ones.  ``engine_kwargs`` are
    the coordinator's engine settings, which the worker's engine takes
    unchanged (epochs and windows arrive with each command).
    """

    shard: int
    n_shards: int
    db: Any
    seed: int
    engine_kwargs: dict = field(default_factory=dict)
    #: Build the worker with its own recording ``Tracer`` (never the
    #: coordinator's — telemetry state is per-process and ships home
    #: serialised inside each :class:`Reply`).  Every worker engine holds
    #: a registry regardless.
    telemetry: bool = False


@dataclass
class ApplyEvents:
    """Apply this shard's sub-batch of a centrally validated event batch."""

    events: list
    #: Mirror of the coordinator's mutation-sync decision (see
    #: :class:`ComputeColumns`), stamped on by the coordinator.
    wholesale: bool = False
    #: Optional :class:`repro.obs.TraceContext` — the coordinator span to
    #: parent this command's worker-side span under (``None`` = no trace).
    trace: Any = None


@dataclass
class ComputeJob(RefineJob):
    """This shard's columns of one block: a :class:`RefineJob` over the
    object ids the shard owns, plus where they go.

    ``job_index`` names the coordinator's block and ``col_index`` the
    object slabs of it this worker fills — each one contiguous.  The
    worker returns its sub-block in the reply and the coordinator
    scatters it into those slabs.
    """

    job_index: int
    col_index: tuple = ()


@dataclass
class ComputeColumns:
    """Look world items up, then compute jobs, under the coordinator's
    batch context — one tick's staging pass on one shard.

    ``items`` are ``(object_id, n_samples, t_lo, t_hi)`` cache windows of
    objects the shard owns: a tick's world targets, or — after a restart,
    with no jobs — the windows the coordinator mirrored for the lost
    worker.  A fresh one-shot draw over a window is bit-identical to the
    original draw plus its forward extensions (the world-cache extension
    contract), so resumption after a replay is exact.  ``epoch``/``window``
    pin the worker's draw epoch and batch window to the coordinator's, so
    cache anchors and RNG seeds are identical to what a single-process
    batch would use.  ``wholesale=True`` makes the worker's sync a full
    flush (new worlds token, fresh arena) even when its own mutation log
    could name the delta — the coordinator's log may have overflowed when
    the worker's did not, and invalidation must match the single-process
    engine for per-tick reuse counters to stay bit-identical.

    The reply's payload is ``(items looked up, pairs)``: one ``(sub-block,
    [hits, partial hits, misses])`` pair per job — its slabs and the
    world-cache lookups filling them made.
    """

    epoch: int
    window: tuple | None
    items: tuple = ()
    jobs: list = field(default_factory=list)
    wholesale: bool = False
    trace: Any = None


@dataclass
class CrashWorker:
    """Test/ops hook: make the worker die without replying."""


@dataclass
class Shutdown:
    """Orderly worker exit."""


@dataclass
class Reply:
    """A successful command's result.

    ``metrics`` is the worker registry's *cumulative* snapshot — every
    count the worker's engine keeps, world-cache lookups included.  The
    coordinator merges its delta since the shard's last reply, so its own
    counters read as if it had done the sampling itself and a restart
    only resets the last-seen baseline.  ``busy_seconds`` is the
    handler's wall time.  With tracing enabled, ``spans`` carries the
    handler's finished span subtree (:meth:`repro.obs.Span.to_dict`
    payloads) for the coordinator to stitch under its live span.
    """

    payload: Any = None
    busy_seconds: float = 0.0
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


@dataclass
class ErrorReply:
    """A handler raised; the worker survives. ``error`` is the traceback."""

    error: str


class ShardCrashed(Exception):
    """Internal transport signal: a worker process is gone (or timed out)."""

    def __init__(self, shard: int, detail: str) -> None:
        self.shard = int(shard)
        self.detail = str(detail)
        super().__init__(f"shard {self.shard}: {self.detail}")


class ShardFailure(RuntimeError):
    """A shard worker died mid-tick.

    Raised on the coordinator in place of a hang: names the shard, the
    subscriptions whose tick was in flight, and the recovery path.  The
    database itself is never lost — the coordinator applies every batch
    to its own authoritative copy before fan-out — so
    ``ServeCoordinator.restart_shard`` can always rebuild the worker and
    replay its worlds bit-identically.
    """

    def __init__(self, shard: int, detail: str, subscriptions=()) -> None:
        self.shard = int(shard)
        self.detail = str(detail)
        self.subscriptions = tuple(subscriptions)
        inflight = ", ".join(repr(s) for s in self.subscriptions) or "none"
        super().__init__(
            f"shard worker {self.shard} failed mid-tick "
            f"(in-flight subscriptions: {inflight}): {self.detail}; "
            f"restart_shard({self.shard}) rebuilds it from the database "
            "and replays its cached worlds bit-identically"
        )
