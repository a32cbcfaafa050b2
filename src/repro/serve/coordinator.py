"""The serving front-end: sharded continuous monitoring with one API.

:class:`ServeCoordinator` owns an unchanged
:class:`~repro.stream.monitor.ContinuousMonitor` whose engine is a
:class:`~repro.serve.engine.ShardedQueryEngine` — all subscription
scheduling, dirty-set derivation, notification delta-ing and reuse
accounting is literally the single-process code; only world sampling
happens inside shard workers.  ``tick`` therefore produces
``Notification``/``TickReport`` streams bit-identical to a
single-process monitor on the same seeded event history, with per-shard
busy times folded into ``TickReport.stage_seconds``.

Event flow per tick — two rounds: the batch validates centrally
(attributable errors, nothing applied anywhere on rejection), applies to
the coordinator's authoritative database first (so a crashed fan-out can
always rebuild a worker from it), and fans per-shard sub-batches out in
one ``ApplyEvents`` round — every shard gets one, empty or not, so the
round is the tick's first all-shard contact and a dead worker surfaces
before any world is drawn.  Then the monitor tick runs — picking the
mutations up through the database's mutation log exactly as it does for
out-of-band writes — and its staging pass is the second round: one
``ComputeColumns`` command per shard with work, carrying the world items
it owns and its columns of every block the due evaluations will read.
The coordinator's invalidation decision rides each shard's next command
(``wholesale``); there is no round of its own.  A tick whose
subscriptions are all clean makes only the first round.

A worker dying mid-tick surfaces as :class:`ShardFailure` naming the
shard and the in-flight subscriptions; :meth:`restart_shard` rebuilds the
worker from the current database and replays its world-cache windows, so
the next tick resumes bit-identically (the monitor's failed tick never
committed its version cursor and re-derives the delta on retry).
"""

from __future__ import annotations

from typing import Iterable

from ..obs.exposition import MetricsServer
from ..obs.tracing import NULL_TRACER
from ..stream.ingest import StreamEvent
from ..stream.monitor import ContinuousMonitor, TickReport
from ..trajectory.database import TrajectoryDatabase
from .engine import ShardedQueryEngine
from .protocol import (
    ApplyEvents,
    CrashWorker,
    ShardFailure,
    WorkerConfig,
)
from .sharding import ShardRouter
from .transport import InlineTransport, ProcessTransport

__all__ = ["ServeCoordinator"]


class ServeCoordinator:
    """Shard-parallel continuous monitoring over one trajectory database.

    Parameters
    ----------
    db:
        The full database; the coordinator keeps the authoritative copy
        (global filtering runs on it) and each worker starts from a shard
        view of it.
    n_shards:
        Worker count; object ids map to shards by content hash, so any
        shard count yields the same results.
    seed:
        Mandatory engine seed, shared by coordinator and workers — the
        root of the shard-determinism argument (see README "Serving").
    mode:
        ``"inline"`` (workers in-process — deterministic, test-friendly,
        zero IPC) or ``"process"`` (one spawned worker process per shard,
        pickled commands and replies over pipes; the workers compute
        concurrently, the coordinator stays on one thread).
    timeout:
        Reply deadline of one fan-out round, from its first send
        (process mode); an overdue or dead worker raises
        :class:`ShardFailure` instead of hanging.
    tracer:
        Optional :class:`repro.obs.Tracer`.  When recording, every tick
        produces one span tree — ingest fan-out, monitor stages, and the
        per-shard worker spans stitched back under the coordinator's
        root (cross-process propagation; see README "Observability").
    metrics:
        The :class:`repro.obs.MetricsRegistry` to expose; the
        coordinator's engine creates its own when ``None``.  Worker
        registries are merged into it with every reply and across
        ``restart_shard``.
    metrics_port:
        When not ``None``, start a stdlib HTTP scrape endpoint
        (``/metrics`` Prometheus text, ``/metrics.json``, ``/traces``,
        ``/slow``) on ``127.0.0.1:<port>`` (``0`` = ephemeral; read
        :attr:`metrics_server` ``.port``/``.url``).
    slow_log:
        Optional :class:`repro.obs.SlowQueryLog` fed by the engine's
        evaluations (slow requests keep their explain plan and trace).
    engine_kwargs:
        Forwarded to the coordinator engine (``n_samples``, ``backend``,
        ``use_pruning``, ``refine_cache_size``); anything
        :class:`~repro.core.evaluator.QueryEngine` does not accept is a
        ``TypeError`` (a value it rejects a ``ValueError``) here, before a
        worker is started.  Workers build their engines from them
        unchanged.
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        *,
        n_shards: int = 2,
        seed: int | None = None,
        mode: str = "inline",
        timeout: float = 120.0,
        tracer=None,
        metrics=None,
        metrics_port: int | None = None,
        slow_log=None,
        **engine_kwargs,
    ) -> None:
        if mode not in ("inline", "process"):
            raise ValueError(f"unknown serve mode {mode!r}")
        if seed is None:
            raise ValueError(
                "ServeCoordinator requires seed= (shard workers must derive "
                "the same world entropy as the coordinator)"
            )
        self.db = db
        self.mode = mode
        self.router = ShardRouter(n_shards)
        self._seed = int(seed)
        self._engine_kwargs = dict(engine_kwargs)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slow_log = slow_log
        # The coordinator's engine is built first: it checks the engine
        # options (an unknown one is a TypeError, a bad value a ValueError)
        # before any worker — in process mode a spawned process — exists.
        self.engine = ShardedQueryEngine(
            db,
            router=self.router,
            transport=None,
            seed=self._seed,
            tracer=tracer,
            metrics=metrics,
            slow_log=slow_log,
            **engine_kwargs,
        )
        self.metrics = self.engine.metrics
        # Shards run the backend the coordinator resolved, not their own probe's.
        self._engine_kwargs["backend"] = self.engine.backend
        self.monitor = ContinuousMonitor(self.engine)
        self._stream = self.monitor.stream
        configs = {
            shard: self._config_for(shard) for shard in range(self.router.n_shards)
        }
        self._transport = None
        self.metrics_server: MetricsServer | None = None
        try:
            if mode == "process":
                self._transport = ProcessTransport(configs, timeout=timeout)
            else:
                self._transport = InlineTransport(configs)
            self.engine._transport = self._transport
            if metrics_port is not None:
                self.metrics_server = MetricsServer(
                    self.metrics,
                    port=metrics_port,
                    tracer=self.tracer if self.tracer.enabled else None,
                    slow_log=slow_log,
                )
        except BaseException:
            self.close()
            raise

    def _config_for(self, shard: int) -> WorkerConfig:
        return WorkerConfig(
            shard=shard,
            n_shards=self.router.n_shards,
            db=self.db.shard_view(
                shard, self.router.n_shards, owner=self.router.shard_of
            ),
            seed=self._seed,
            engine_kwargs=dict(self._engine_kwargs),
            # Workers build their *own* tracer (telemetry objects never
            # ride a WorkerConfig across the spawn boundary); replies ship
            # spans and cumulative registry snapshots home instead.
            telemetry=self.tracer.enabled,
        )

    # ------------------------------------------------------------------
    # subscriptions (delegated to the unchanged monitor)
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return self.router.n_shards

    @property
    def subscriptions(self):
        return self.monitor.subscriptions

    @property
    def now(self):
        return self.monitor.now

    def subscribe(self, request, callback=None, *, name=None, window=None):
        return self.monitor.subscribe(
            request, callback, name=name, window=window
        )

    def unsubscribe(self, name: str) -> None:
        self.monitor.unsubscribe(name)

    def refresh(self) -> None:
        self.monitor.refresh()

    # ------------------------------------------------------------------
    # the serving tick
    # ------------------------------------------------------------------
    def tick(
        self,
        events: Iterable[StreamEvent] = (),
        *,
        now: int | None = None,
    ) -> TickReport:
        """Ingest, fan out, evaluate, merge — one serving cycle.

        Identical contract to :meth:`ContinuousMonitor.tick`, plus
        ``stage_seconds["shard<i>"]`` entries carrying each worker's busy
        time for the tick.
        """
        events = list(events)
        engine = self.engine
        engine.reset_shard_timings()
        # The serve-tick span roots this tick's trace: the apply fan-out's
        # per-shard ingest spans and the monitor's tick subtree (with the
        # workers' stitched sweep spans) all land under it.
        with self.tracer.span("serve-tick") as sp_tick:
            ingest = None
            try:
                with engine.tick_scope(s.name for s in self.monitor.subscriptions):
                    with self.tracer.span("apply-fanout") as sp_apply:
                        if events:
                            # Central validation + authoritative apply
                            # first: a crash during fan-out must never lose
                            # the batch (restart_shard rebuilds workers from
                            # this database).  Validation errors name the
                            # offending event's index and object id and
                            # leave every database untouched.  Every shard
                            # is sent its share, empty or not: the round is
                            # the tick's first all-shard contact, so a dead
                            # worker surfaces before any world is drawn.
                            ingest = self._stream.apply(events)
                            partition = self.router.partition_events(events)
                            engine._broadcast(
                                {
                                    shard: ApplyEvents(events=partition.get(shard, []))
                                    for shard in range(self.router.n_shards)
                                }
                            )
                    apply_seconds = sp_apply.duration_seconds
                    effective_now = now
                    if effective_now is None and ingest is not None:
                        latest = ingest.latest_time
                        current = self.monitor.now
                        if latest is not None and (
                            current is None or latest > current
                        ):
                            effective_now = latest
                    report = self.monitor.tick((), now=effective_now)
            except ShardFailure as failure:
                self._observe_failure(failure)
                raise
            # Fold the fan-out apply cost and per-shard busy times in via
            # the explicit merge constructor — TickReport is frozen and
            # its stage dict must not be mutated behind other holders.
            stages = {
                "ingest": report.stage_seconds.get("ingest", 0.0)
                + apply_seconds
            }
            for shard, busy in sorted(engine.shard_busy_seconds.items()):
                stages[f"shard{shard}"] = busy
            report = report.with_stage_times(stages, ingest=ingest)
            if self.tracer.enabled:
                sp_tick.set(
                    shards=self.router.n_shards,
                    events=len(events),
                    notifications=len(report.notifications),
                )
        self.metrics.counter("serve_ticks_total", help="Completed serving ticks.").inc()
        return report

    def _observe_failure(self, failure: ShardFailure) -> None:
        """Record a mid-tick worker death on every telemetry channel."""
        self.metrics.counter(
            "shard_failures_total", help="Worker deaths surfaced mid-tick, by shard.",
            labels={"shard": str(failure.shard)},
        ).inc()
        self.tracer.event(
            "shard-failure",
            shard=failure.shard,
            detail=failure.detail,
            subscriptions=list(failure.subscriptions),
        )

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def inject_crash(self, shard: int) -> None:
        """Kill one worker (test/ops hook); the next use raises ShardFailure."""
        try:
            self.engine._request(int(shard), CrashWorker())
        except ShardFailure:
            pass

    def restart_shard(self, shard: int) -> dict[str, int]:
        """Rebuild a dead worker from the database and replay its worlds.

        The replacement gets a fresh shard view of the *current* database
        (every applied batch is in it — the coordinator applies before
        fan-out) and re-draws exactly the world-cache segments the
        coordinator mirrored for the current epoch, so held-epoch ticks
        resume bit-identically to a worker that never died.  Counters
        from the replay land between ticks and therefore never skew
        per-tick reuse deltas.
        """
        shard = int(shard)
        self._transport.restart(shard, self._config_for(shard))
        self.metrics.counter(
            "shard_restarts_total", help="Worker rebuild/replay recoveries, by shard.",
            labels={"shard": str(shard)},
        ).inc()
        self.tracer.event(
            "shard-restart",
            shard=shard,
            subscriptions=[s.name for s in self.monitor.subscriptions],
        )
        return self.engine.replay_shard(shard)

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self.metrics_server is not None:
            self.metrics_server.close()
            self.metrics_server = None
        if self._transport is not None:
            self._transport.close()

    def __enter__(self) -> "ServeCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServeCoordinator(n_shards={self.router.n_shards}, "
            f"mode={self.mode!r}, subscriptions={len(self.subscriptions)})"
        )
