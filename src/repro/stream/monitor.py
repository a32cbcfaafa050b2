"""Continuous monitoring: standing subscriptions over a live database.

:class:`ContinuousMonitor` is the serving loop of the streaming subsystem.
Clients :meth:`~ContinuousMonitor.subscribe` standing queries (fixed time
sets or :class:`~repro.stream.scheduler.SlidingWindow`\\ s following the
stream clock); each :meth:`~ContinuousMonitor.tick` then

1. **ingests** an event batch through the
   :class:`~repro.stream.ingest.ObservationStream` (yielding the tick's
   *dirty set* of touched objects — the engine invalidates its UST-tree
   segments, arena tables and cached worlds for exactly those objects);
2. **schedules**: the :class:`~repro.stream.scheduler.
   SubscriptionScheduler` re-evaluates only the subscriptions whose
   windows moved, whose filter sets changed (one UST-tree filter pass per
   window shared by the subscriptions that need it), or whose influence
   set intersects the dirty objects — everything else is provably
   unchanged and skipped;
3. **coalesces** the due subscriptions: one staging pass
   (:meth:`~repro.core.evaluator.QueryEngine.stage` with the due
   requests) fixes the held draw epoch and the union window of *all*
   subscriptions — so cached world anchors never depend on which subset
   happened to fire — plans and filters each due request once, looks up
   every world their evaluations will read (one adaptation, compile and
   arena draw for the tick's newcomers) and fills the blocks those
   evaluations will be handed, all together, returning them as a
   ``Stage``; then
   :meth:`~repro.core.evaluator.QueryEngine.evaluate_staged` evaluates
   the batch off that value;
4. **notifies**: every subscription receives a delta
   :class:`Notification` (``changed``/unchanged, with the fresh or cached
   result and its :class:`~repro.core.results.EvaluationReport`), and the
   :class:`TickReport` aggregates reuse counters (world-cache hits /
   forward extensions / misses, sampler calls, incremental index updates).

Holding one draw epoch across ticks makes the delta semantics exact:
worlds — and therefore estimates — move only when the database does, and
standalone queries interleaved on the same engine do not disturb the held
worlds (the next tick's stage holds the monitoring epoch again).  A
caller wanting a periodic statistical refresh calls
:meth:`ContinuousMonitor.refresh`: the next tick then re-evaluates every
subscription against freshly drawn worlds (``reason="epoch-refresh"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from ..core.evaluator import QueryEngine
from ..core.queries import QueryRequest
from ..core.results import (
    PCNNResult,
    QueryResult,
    RawProbabilities,
    ReverseNNResult,
)
from ..trajectory.observation import as_integer
from .ingest import IngestResult, ObservationStream, StreamEvent
from .scheduler import SlidingWindow, Subscription, SubscriptionScheduler

__all__ = ["Notification", "TickReport", "ContinuousMonitor"]


def _result_payload(result) -> tuple:
    """The user-visible content of a result, for change detection."""
    if isinstance(result, QueryResult):
        return (
            "query",
            tuple(sorted(result.probabilities.items())),
            tuple(result.candidates),
            tuple(result.influencers),
        )
    if isinstance(result, PCNNResult):
        return (
            "pcnn",
            tuple((e.object_id, e.times, e.probability) for e in result.entries),
            tuple(result.candidates),
            tuple(result.influencers),
        )
    if isinstance(result, RawProbabilities):
        return (
            "raw",
            tuple(sorted(result.forall.items())),
            tuple(sorted(result.exists.items())),
        )
    if isinstance(result, ReverseNNResult):
        return (
            "reverse",
            tuple(sorted(result.probabilities.items())),
            tuple(sorted(result.exists.items())),
            tuple(result.candidates),
            tuple(result.influencers),
        )
    raise TypeError(f"unknown result type {type(result).__name__}")


def results_equal(a, b) -> bool:
    """Whether two evaluation results carry identical user-visible content."""
    if a is None or b is None:
        return a is b
    return _result_payload(a) == _result_payload(b)


@dataclass(frozen=True)
class Notification:
    """One subscription's delta for one tick."""

    subscription: str
    #: The result's user-visible content differs from the previous tick's.
    changed: bool
    #: Whether the estimate stage actually ran this tick (``False`` means
    #: the scheduler proved the cached result still holds).
    reevaluated: bool
    #: The scheduler's reason (``initial``/``window-moved``/``filter-
    #: changed``/``dirty-influencer``/``clean``).
    reason: str
    result: QueryResult | PCNNResult | RawProbabilities
    times: tuple[int, ...]

    @property
    def report(self):
        """The result's :class:`~repro.core.results.EvaluationReport`."""
        return self.result.report


@dataclass(frozen=True)
class TickReport:
    """Aggregate outcome of one :meth:`ContinuousMonitor.tick`.

    ``reuse`` holds per-tick deltas of the engine's reuse/invalidation
    counters:

    ``cache_hits`` / ``cache_partial_hits`` / ``cache_misses``
        World-cache lookups (full reuse / forward extension / fresh draw).
        The tick's world pass looks up ahead what the due evaluations
        read, so their own lookups of the same worlds count as hits.
    ``sampler_calls``
        Full sampler invocations (world-cache misses + direct draws).
    ``index_updates`` / ``index_rebuilds``
        Incremental vs wholesale UST-tree maintenance.
    ``worlds_invalidated``
        Cached world segments dropped by selective invalidation.
    ``estimate_cache_hits`` / ``estimate_cache_misses``
        Refinement distance-tensor cache outcomes: a *hit* served a
        standing request's tensor in place (recomputing only dirty
        columns), a *miss* rebuilt it wholesale (cold key, fresh epoch,
        or a mutation log too old to name what changed).
    ``estimate_columns_reused`` / ``estimate_columns_refreshed``
        Per-object tensor columns served from cache vs recomputed — the
        dirty-column accounting behind the hits/misses: a steady-state
        tick with one dirty influencer refreshes one column per due
        subscription and reuses the rest.

    ``stage_seconds`` breaks the tick's wall time into its stages:
    ``ingest`` (event application, dirty-set derivation, index
    maintenance and the tick's one world pass — every due request planned
    and filtered, every world its evaluation reads looked up, adapted,
    compiled and drawn, and every block it will be handed filled, in one
    batch: the ingest-to-ready cost), ``schedule``
    (re-evaluation verdicts), ``evaluate`` (the coalesced
    ``evaluate_staged`` call, further split into the summed per-request
    ``filter`` and ``estimate`` stage timings — the block fills sit in
    ``ingest``, not here) and ``notify`` (delta/callback delivery).
    """

    now: int | None
    ingest: IngestResult | None
    dirty: frozenset[str]
    notifications: tuple[Notification, ...]
    reuse: dict[str, int] = field(default_factory=dict)
    #: True when the mutation delta could not be attributed per object
    #: (mutation-log overflow): ``dirty`` is then empty *not because
    #: nothing changed* but because everything had to be treated as
    #: changed — every subscription was force-re-evaluated.
    full_invalidation: bool = False
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def with_stage_times(
        self,
        extra_stages: dict[str, float] | None = None,
        *,
        ingest: IngestResult | None = None,
    ) -> "TickReport":
        """A copy with merged ``stage_seconds``.

        ``TickReport`` is frozen; its ``stage_seconds`` dict must not be
        mutated in place by wrappers (the serve coordinator used to —
        aliasing every holder of the report).  This is the sanctioned
        merge constructor: ``extra_stages`` entries override same-named
        stages, and ``ingest`` — when given — swaps the ingest result
        (the coordinator substitutes its pre-partitioned one).
        """
        return replace(
            self,
            stage_seconds={**self.stage_seconds, **(extra_stages or {})},
            **({} if ingest is None else {"ingest": ingest}),
        )

    @property
    def reevaluated(self) -> tuple[str, ...]:
        return tuple(n.subscription for n in self.notifications if n.reevaluated)

    @property
    def skipped(self) -> tuple[str, ...]:
        return tuple(
            n.subscription for n in self.notifications if not n.reevaluated
        )

    @property
    def changed(self) -> tuple[str, ...]:
        return tuple(n.subscription for n in self.notifications if n.changed)


class ContinuousMonitor:
    """Standing PNN queries over an ingesting trajectory database.

    Parameters
    ----------
    engine:
        The query engine to evaluate through.  Ingests invalidate its
        derived state per object, which is what makes ticks cheap.
    stream:
        Optional pre-existing :class:`ObservationStream` (shared with
        other ingest paths); by default the monitor creates its own over
        ``engine.db``.
    """

    def __init__(
        self,
        engine: QueryEngine,
        stream: ObservationStream | None = None,
    ) -> None:
        if stream is not None and stream.db is not engine.db:
            raise ValueError("stream and engine must share one database")
        self.engine = engine
        self.stream = stream if stream is not None else ObservationStream(engine.db)
        self.scheduler = SubscriptionScheduler(engine)
        self._subscriptions: dict[str, Subscription] = {}
        self._counter = 0
        self._now: int | None = None
        # Database version this monitor's subscription state reflects: the
        # tick dirty set is derived from ``changed_since`` against it, so
        # mutations applied *outside* tick() (direct ``db.add_observation``
        # calls, a shared stream) are picked up too.  Committed only when
        # a tick completes — an exception mid-tick leaves it behind, and
        # the retry re-derives the full delta instead of serving stale
        # results as "clean".
        self._db_version_seen = engine.db.version
        self._refresh_pending = False
        # The previous tick's all-subscriptions union window.  Cached
        # world anchors never precede a past union's start, so a tick
        # whose union reaches further *back* (a new subscription over an
        # earlier window, a rewound clock) could trigger the world
        # cache's backward-redraw fallback mid-epoch — silently changing
        # worlds under results still reported "clean".  Such ticks force
        # a coherent refresh instead.
        self._last_union: tuple[int, int] | None = None
        #: Committed ticks — a tick whose callbacks raise included.
        self.ticks = engine.metrics.counter(
            "monitor_ticks_total", help="Completed monitor ticks."
        )

    # ------------------------------------------------------------------
    @property
    def now(self) -> int | None:
        """The stream clock: latest ingested observation time (or the last
        explicit ``tick(now=...)`` override), ``None`` before either."""
        return self._now

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subscriptions.values())

    def subscribe(
        self,
        request: QueryRequest | tuple,
        callback: Callable[[Notification], None] | None = None,
        *,
        name: str | None = None,
        window: SlidingWindow | None = None,
    ) -> Subscription:
        """Register a standing query; evaluated from the next tick on.

        ``request`` is a :class:`QueryRequest` (or coercible tuple).  With
        a :class:`SlidingWindow` the request's times are re-derived from
        the stream clock each tick; otherwise its fixed times stand.
        ``callback`` (if given) receives this subscription's
        :class:`Notification` every tick.

        Subscriptions may carry any query class the engine evaluates —
        ``k > 1`` depths and the ``"reverse_nn"`` mode included.  Reverse
        subscriptions skip UST pruning (their influence set is every
        object overlapping the window), which keeps the scheduler's
        dirty-influencer rule sound: any mutated overlapping object is in
        the last influence set, so the subscription re-evaluates.  Note
        the engine's k-vs-pool check applies per tick: a stream that
        removes objects until fewer than ``k`` influencers remain makes
        the subscription's evaluation raise rather than silently degrade.
        """
        request = QueryEngine._coerce_request(request)
        if name is None:
            self._counter += 1
            name = f"sub-{self._counter}"
        if name in self._subscriptions:
            raise KeyError(f"subscription {name!r} already exists")
        subscription = Subscription(
            name=name, request=request, window=window, callback=callback
        )
        self._subscriptions[name] = subscription
        return subscription

    def unsubscribe(self, name: str) -> None:
        try:
            del self._subscriptions[name]
        except KeyError:
            raise KeyError(f"unknown subscription {name!r}") from None

    def refresh(self) -> None:
        """Request a statistical refresh of every standing query.

        The next :meth:`tick` re-evaluates all subscriptions against a
        fresh draw epoch (``reason="epoch-refresh"``) instead of the held
        worlds — the knob for bounding Monte-Carlo staleness in
        long-running deployments.  One-shot: subsequent ticks hold the new
        epoch again.
        """
        self._refresh_pending = True

    # ------------------------------------------------------------------
    def _reuse_snapshot(self) -> dict[str, int]:
        engine = self.engine
        return {
            "cache_hits": engine.worlds.hits.value,
            "cache_partial_hits": engine.worlds.partial_hits.value,
            "cache_misses": engine.worlds.misses.value,
            "sampler_calls": engine.sampler_calls,
            "index_updates": engine.index_updates.value,
            "index_rebuilds": engine.index_rebuilds.value,
            "worlds_invalidated": engine.worlds_invalidated.value,
            "estimate_cache_hits": engine.estimate_cache_hits.value,
            "estimate_cache_misses": engine.estimate_cache_misses.value,
            "estimate_columns_reused": engine.estimate_columns_reused.value,
            "estimate_columns_refreshed": engine.estimate_columns_refreshed.value,
        }

    def tick(
        self,
        events: Iterable[StreamEvent] = (),
        *,
        now: int | None = None,
    ) -> TickReport:
        """Ingest one event batch and refresh the standing queries.

        Returns the :class:`TickReport`; per-subscription callbacks fire
        after all due evaluations completed, in subscription order.
        """
        if now is not None:
            # Checked before anything is ingested: a refused clock leaves
            # the monitor untouched.
            now = as_integer("now", now)
        tracer = self.engine.tracer
        # Every stage below runs inside a span; ``stage_seconds`` is read
        # off the span durations (one timing truth — see repro.obs).
        with tracer.span("tick") as sp_tick:
            report = self._tick_spanned(events, now, tracer, sp_tick)
        self._observe_tick(report)
        return report

    def _tick_spanned(self, events, now, tracer, sp_tick) -> TickReport:
        before = self._reuse_snapshot()
        with tracer.span("ingest") as sp_ingest:
            events = list(events)
            ingest = self.stream.apply(events) if events else None
            # The dirty set covers *every* mutation since the last tick —
            # the batch just ingested plus anything applied to the database
            # out of band (a "clean" verdict must mean provably unchanged,
            # not merely untouched-by-this-batch).  When the mutation log
            # can no longer name the delta, nothing is provable: force
            # re-evaluation of all.
            ranges = self.engine.db.changed_ranges_since(self._db_version_seen)
            full_invalidation = ranges is None
            dirty = frozenset() if full_invalidation else frozenset(ranges)
            if now is not None:
                self._now = now
            elif ingest is not None and ingest.latest_time is not None:
                if self._now is None or ingest.latest_time > self._now:
                    self._now = ingest.latest_time
        ingest_seconds = sp_ingest.duration_seconds

        subscriptions = list(self._subscriptions.values())
        requests = [sub.request_at(self._now) for sub in subscriptions]
        union = self._union_window(requests) if requests else None
        # A union reaching before the previous tick's would hit the world
        # cache's backward-redraw fallback for shared influencers: cached
        # results of untouched subscriptions would silently stop matching
        # their worlds.  Redraw everything coherently instead.
        union_moved_back = (
            union is not None
            and self._last_union is not None
            and union[0] < self._last_union[0]
        )
        refreshing = self._refresh_pending or union_moved_back
        force_reason = (
            "unknown-mutations"
            if full_invalidation
            else "window-union-extended"
            if union_moved_back
            else "epoch-refresh" if self._refresh_pending else None
        )

        # One § 6 pass per (window, k) group, over the subscriptions that
        # will filter this tick: the scheduler's filter_objects() and the due
        # evaluations' filter stage read the same results.
        with self.scheduler.settling(
            subscriptions, requests, dirty, force=force_reason, dirty_ranges=ranges
        ):
            with tracer.span("schedule") as sp_schedule:
                decisions = [
                    self.scheduler.decide(
                        sub,
                        dirty,
                        self._now,
                        force=force_reason,
                        dirty_ranges=ranges,
                    )
                    for sub in subscriptions
                ]
            schedule_seconds = sp_schedule.duration_seconds
            due = [d for d in decisions if d.due]

            # Ingest-to-ready: the tick's one staging pass.  It syncs the
            # index, plans and filters each due request once, and fills the
            # blocks the due evaluations will be handed with one world
            # lookup — into the epoch they read and over the union window
            # they anchor at — so the tick's newcomers are adapted, compiled
            # and drawn in one batch; it returns the blocks with the plans.
            # A block is a due request's live refine set at its planned
            # world count when its estimator samples every influence object
            # (hybrid, bounds and exact draw for themselves, or not at all —
            # a world drawn that nobody reads would move a later anchor).
            # The lookup also warms the dirty objects some due subscription
            # was influenced by last tick.  A tick whose subscriptions all
            # proved clean samples nothing; a refreshing tick draws a fresh
            # epoch, warming nothing beyond its blocks.
            with tracer.span("prefetch") as sp_prefetch:
                if due:
                    influenced = set()
                    for decision in due:
                        influenced.update(
                            decision.subscription.last_influencers or ()
                        )
                    warm = sorted(oid for oid in dirty & influenced if oid in self.engine.db)
                    stage = self.engine.stage(
                        [decision.request for decision in due],
                        refresh_worlds=refreshing,
                        window=union,
                        warm=() if refreshing else warm,
                    )
            # The world pass is part of the ingest-to-ready cost (see the
            # TickReport docs); the trace keeps it as its own span.
            ingest_seconds += sp_prefetch.duration_seconds
            results: dict[str, object] = {}
            filter_seconds = estimate_seconds = evaluate_seconds = 0.0
            if due:
                with tracer.span("evaluate") as sp_evaluate:
                    evaluated = self.engine.evaluate_staged(stage)
                    results = {
                        d.subscription.name: r for d, r in zip(due, evaluated)
                    }
                    for r in evaluated:
                        stages = getattr(r.report, "stage_seconds", None) or {}
                        filter_seconds += stages.get("filter", 0.0)
                        estimate_seconds += stages.get("estimate", 0.0)
                evaluate_seconds = sp_evaluate.duration_seconds

        with tracer.span("notify") as sp_notify:
            notifications = []
            for decision in decisions:
                sub = decision.subscription
                if decision.due:
                    result = results[sub.name]
                    changed = not results_equal(sub.last_result, result)
                    sub.last_times = decision.request.times
                    if decision.candidates is None:
                        # The verdict was reached without the filter stage;
                        # the evaluation's own (post-ingest) sets are the
                        # fresh baseline the next tick compares against.
                        sub.last_candidates = tuple(result.candidates)
                        sub.last_influencers = tuple(result.influencers)
                    else:
                        sub.last_candidates = decision.candidates
                        sub.last_influencers = decision.influencers
                    sub.last_result = result
                    sub.evaluations += 1
                else:
                    result = sub.last_result
                    changed = False
                notifications.append(
                    Notification(
                        subscription=sub.name,
                        changed=changed,
                        reevaluated=decision.due,
                        reason=decision.reason,
                        result=result,
                        times=decision.request.times,
                    )
                )
            # The tick succeeded: only now does the monitor consider the
            # database delta (and any pending refresh) consumed.
            self._db_version_seen = self.engine.db.version
            self._refresh_pending = False
            if union is not None:
                self._last_union = union
            # Callbacks are isolated from each other: one subscriber's bug
            # must not swallow the remaining subscribers' deltas.  The first
            # failure is re-raised once every notification was delivered.
            callback_errors: list[tuple[str, Exception]] = []
            for notification in notifications:
                callback = self._subscriptions[notification.subscription].callback
                if callback is not None:
                    try:
                        callback(notification)
                    except Exception as exc:  # noqa: BLE001 - isolation barrier
                        callback_errors.append((notification.subscription, exc))
            self.ticks.inc()
            if callback_errors:
                name, exc = callback_errors[0]
                raise RuntimeError(
                    f"subscription callback {name!r} raised during tick "
                    f"({len(callback_errors)} callback failure(s) total)"
                ) from exc
        notify_seconds = sp_notify.duration_seconds
        after = self._reuse_snapshot()
        if tracer.enabled:
            sp_tick.set(
                now=self._now,
                subscriptions=len(decisions),
                due=len(due),
                dirty=len(dirty),
                full_invalidation=full_invalidation,
            )
        return TickReport(
            now=self._now,
            ingest=ingest,
            dirty=dirty,
            notifications=tuple(notifications),
            reuse={key: after[key] - before[key] for key in after},
            full_invalidation=full_invalidation,
            stage_seconds={
                "ingest": ingest_seconds,
                "schedule": schedule_seconds,
                "evaluate": evaluate_seconds,
                "filter": filter_seconds,
                "estimate": estimate_seconds,
                "notify": notify_seconds,
            },
        )

    def _observe_tick(self, report: TickReport) -> None:
        """Feed the engine's metrics registry after a completed tick."""
        engine = self.engine
        for stage, secs in report.stage_seconds.items():
            engine._instrument(
                "histogram", "tick_stage_seconds", "Per-stage monitor tick latency.", stage=stage
            ).observe(secs)
        engine._instrument(
            "counter", "subscriptions_reevaluated_total",
            "Subscription re-evaluations across ticks.",
        ).inc(len(report.reevaluated))
        engine._instrument(
            "counter", "notifications_changed_total", "Notifications whose result changed."
        ).inc(len(report.changed))
        engine._instrument(
            "gauge", "subscriptions", "Currently registered subscriptions."
        ).set(len(self._subscriptions))

    @staticmethod
    def _union_window(requests: Sequence[QueryRequest]) -> tuple[int, int]:
        """Hull over *all* subscriptions' current windows.

        Passed to ``stage(window=...)`` so each object's cached
        world anchor depends only on the registered subscriptions — never
        on which subset of them a tick's dirty set happened to wake —
        keeping held-epoch worlds bit-identical across ticks.
        """
        lows, highs = zip(*(r.window for r in requests))
        return min(lows), max(highs)
