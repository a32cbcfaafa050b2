"""Standing-query bookkeeping: subscriptions and re-evaluation decisions.

A continuous query (the monitoring reading of the paper's PCNN setting,
and the probabilistic-Voronoi line of work on moving NN queries) is a
*standing* request: it stays registered while the database keeps moving.
This module holds the two pieces the :class:`~repro.stream.monitor.
ContinuousMonitor` composes:

* :class:`Subscription` — one standing request, either over the fixed time
  set baked into its :class:`~repro.core.queries.QueryRequest` or over a
  :class:`SlidingWindow` that follows the stream clock, plus the state of
  its last evaluation (times, filter sets, result);
* :class:`SubscriptionScheduler` — decides, per tick, whether a
  subscription must be re-evaluated, from the tick's dirty set, the
  mutations' affected time ranges
  (:meth:`TrajectoryDatabase.changed_ranges_since`) and — only when
  neither settles the verdict — the UST-tree filter stage
  (:meth:`QueryEngine.filter_objects`, which samples nothing).

The skip rule is *provable*, not heuristic, on the monitor's engine
discipline (held draw epoch + selective invalidation): a
P∀/P∃/PCNN/reverse result — at any kNN depth ``k`` — is a function of
the query, its time set, the filter stage's candidate/influence sets
and the influence objects' sampled worlds.  Reverse subscriptions stay
covered because their influence set is *every* object overlapping the
window (the engine disables distance-to-query pruning for them), so a
dirty overlapping object always trips the dirty-influencer rule.  If
the window did not move, no influence object is dirty and the filter
sets are unchanged, then every input is bit-identical to the previous
tick — so the cached result *is* the result, and the scheduler skips the
evaluation outright.  Two refinements keep deciding cheap in steady
state: a dirty object already in the *last* influence set makes the
subscription due immediately (no filter output could change that
verdict), and a mutation whose affected time range
is disjoint from the subscription's window provably cannot have moved
its filter output at those times (an observation only reshapes the
reachability diamonds between its neighboring fixes), so a tick whose
entire dirty set misses the window skips without filtering at all.
A filter that is needed runs once per tick and ``(window, k)`` group, not
once per subscription (:meth:`QueryEngine.shared_filter`), and the
evaluation of a ``filter-changed`` subscription reads the same result.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from ..core.queries import QueryRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.evaluator import QueryEngine

__all__ = ["SlidingWindow", "Subscription", "Decision", "SubscriptionScheduler"]


@dataclass(frozen=True)
class SlidingWindow:
    """A query window that follows the stream clock.

    At clock ``now`` the subscription asks about the ``width`` most recent
    tics ending at ``now - lag`` (a positive ``lag`` trades freshness for
    asking only about tics whose observations have likely arrived).
    """

    width: int
    lag: int = 0

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("window width must be >= 1")
        if self.lag < 0:
            raise ValueError("window lag must be >= 0")

    def times_at(self, now: int) -> tuple[int, ...]:
        hi = int(now) - self.lag
        return tuple(range(hi - self.width + 1, hi + 1))


@dataclass
class Subscription:
    """One standing query plus the state of its last evaluation.

    ``request`` is the template; for sliding subscriptions its ``times``
    are re-derived from the clock each tick (:meth:`request_at`).  The
    ``last_*`` fields are what the scheduler compares against — they are
    updated by the monitor after each re-evaluation.
    """

    name: str
    request: QueryRequest
    window: SlidingWindow | None = None
    callback: Callable | None = None
    last_times: tuple[int, ...] | None = None
    last_candidates: tuple[str, ...] | None = None
    last_influencers: tuple[str, ...] | None = None
    last_result: object | None = field(default=None, repr=False)
    evaluations: int = 0

    def request_at(self, now: int | None) -> QueryRequest:
        """The concrete request this tick: fixed times, or clock-derived."""
        if self.window is None:
            return self.request
        if now is None:
            raise ValueError(
                f"subscription {self.name!r} slides with the stream clock; "
                "pass tick(now=...) or ingest timestamped events first"
            )
        return replace(self.request, times=self.window.times_at(now))


@dataclass(frozen=True)
class Decision:
    """One tick's verdict for one subscription."""

    subscription: Subscription
    request: QueryRequest
    due: bool
    #: Why: ``initial`` (never evaluated), ``window-moved`` (sliding times
    #: changed), ``filter-changed`` (candidate/influence sets differ from
    #: the last evaluation), ``dirty-influencer`` (a mutated object sits
    #: in the last influence set), ``unknown-mutations`` (the mutation log
    #: could not name the delta — everything re-evaluates),
    #: ``epoch-refresh`` (an explicit ``ContinuousMonitor.refresh()``),
    #: ``window-union-extended`` (the all-subscriptions union reached
    #: further back than last tick — worlds redraw coherently) or
    #: ``clean`` (provably unchanged; skipped).
    reason: str
    #: The filter sets backing the verdict.  ``None`` for due-regardless
    #: verdicts decided *without* asking for the filter stage (initial,
    #: window-moved, dirty-influencer, forced): the evaluation itself
    #: produces the fresh sets, and the monitor records them from the
    #: result.
    candidates: tuple[str, ...] | None
    influencers: tuple[str, ...] | None


class SubscriptionScheduler:
    """Decides which standing subscriptions a tick must re-evaluate.

    Runs the engine's filter stage only (``filter_objects()`` — no worlds
    sampled, no RNG consumed), so deciding is cheap enough to do for every
    subscription on every tick; the expensive estimate stage runs only for
    subscriptions found due, coalesced by the monitor into one batch.
    """

    def __init__(self, engine: "QueryEngine") -> None:
        self.engine = engine
        #: ``name -> (request, verdict)`` inside a :meth:`settling` block.
        self._settled: dict[str, tuple] = {}

    def decide(
        self, subscription: Subscription, dirty: frozenset[str] | set[str],
        now: int | None, *, force: str | None = None,
        dirty_ranges: dict[str, tuple[float, float]] | None = None,
    ) -> Decision:
        """The re-evaluation verdict for one subscription this tick.

        A non-``None`` ``force`` re-evaluates unconditionally with that
        reason — the monitor's path for deltas it cannot attribute
        (``"unknown-mutations"``) and for explicit statistical refreshes
        (``"epoch-refresh"``).

        The filter stage runs only when its output can actually change
        the verdict.  Due-regardless outcomes (forced, never evaluated,
        window moved, a dirty object in the *last* influence set) skip it
        — the evaluation filters, and the monitor records the result's
        own sets.  When ``dirty_ranges`` (from
        :meth:`TrajectoryDatabase.changed_ranges_since`) shows every dirty
        object's affected time range disjoint from the request's times —
        and none of them sits in the last influence set — the subscription
        is provably clean without filtering either: a mutation can only
        move filter output at times inside its affected range, so every
        input of the cached result is bit-identical.  Only the remaining
        case (a dirty range touching the window, by an object outside the
        influence set) needs the filter pass to compare fresh filter
        sets.
        """
        decision = self._decide(
            subscription, dirty, now, force=force, dirty_ranges=dirty_ranges
        )
        # The one decision count: summed over reasons, and ``"clean"`` for
        # the skipped ones.
        self.engine._instrument(
            "counter", "scheduler_decisions_total", "Scheduler verdicts, by reason.",
            reason=decision.reason,
        ).inc()
        return decision

    @contextmanager
    def settling(self, subscriptions, requests, dirty, *, force=None, dirty_ranges=None):
        """A tick's deciding block.  What can be said of each subscription
        without the filter stage is settled once, up front, and
        :meth:`decide` inside the block starts from it; everything not
        ``"clean"`` ends in a filter pass this tick (a due subscription's
        evaluation filters too), so exactly those requests share the
        engine's filter work (:meth:`QueryEngine.shared_filter`)."""
        self._settled = {
            sub.name: (request, self._settle(sub, request, dirty, force, dirty_ranges))
            for sub, request in zip(subscriptions, requests)
        }
        filtering = [req for req, reason in self._settled.values() if reason != "clean"]
        try:
            with self.engine.shared_filter(filtering):
                yield
        finally:
            self._settled = {}

    def _settle(self, subscription, request, dirty, force, dirty_ranges) -> str | None:
        """The verdict reachable without the filter stage: a due reason,
        ``"clean"``, or ``None`` when only fresh filter sets can tell."""
        if force is not None:
            return force
        if subscription.evaluations == 0:
            return "initial"
        if request.times != subscription.last_times:
            return "window-moved"
        if not dirty:
            # Quiet tick: the database is untouched and the window did not
            # move, so the filter stage is a pure function of unchanged
            # inputs — skip without even pruning.
            return "clean"
        if not dirty.isdisjoint(subscription.last_influencers or ()):
            return "dirty-influencer"
        if dirty_ranges is not None and self._ranges_disjoint(
            dirty, dirty_ranges, request.times
        ):
            return "clean"
        return None

    def _decide(
        self, subscription: Subscription, dirty: frozenset[str] | set[str],
        now: int | None, *, force: str | None = None,
        dirty_ranges: dict[str, tuple[float, float]] | None = None,
    ) -> Decision:
        ahead = self._settled.get(subscription.name)
        if ahead is None:
            request = subscription.request_at(now)
            ahead = request, self._settle(subscription, request, dirty, force, dirty_ranges)
        request, reason = ahead
        candidates = influencers = None
        if reason is None:
            pruning = self.engine.filter_objects(
                request.query, request.times, k=request.k, mode=request.mode
            )
            candidates = tuple(pruning.candidates)
            influencers = tuple(pruning.influencers)
            # Unchanged sets and (from above) no dirty influencer: every
            # input of the cached result is bit-identical.
            unchanged = (candidates, influencers) == (
                subscription.last_candidates,
                subscription.last_influencers,
            )
            reason = "clean" if unchanged else "filter-changed"
        elif reason == "clean":
            candidates = subscription.last_candidates or ()
            influencers = subscription.last_influencers or ()
        return Decision(
            subscription=subscription,
            request=request,
            due=reason != "clean",
            reason=reason,
            candidates=candidates,
            influencers=influencers,
        )

    @staticmethod
    def _ranges_disjoint(
        dirty: frozenset[str] | set[str],
        dirty_ranges: dict[str, tuple[float, float]],
        times: tuple[int, ...],
    ) -> bool:
        """Whether every dirty object's affected range misses ``times``.

        Ids missing from ``dirty_ranges`` are treated as unbounded
        (conservative: never skippable).
        """
        for oid in dirty:
            lo, hi = dirty_ranges.get(oid, (float("-inf"), float("inf")))
            if any(lo <= t <= hi for t in times):
                return False
        return True
