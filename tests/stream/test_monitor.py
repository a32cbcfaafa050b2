"""ContinuousMonitor semantics: scheduling, deltas, reuse accounting."""

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    ObservationStream,
    RemoveObject,
    SlidingWindow,
)
from tests.conftest import make_random_world

pytestmark = pytest.mark.stream


@pytest.fixture
def world():
    db, _ = make_random_world(seed=7, n_objects=5, span=8, obs_every=3)
    return db


@pytest.fixture
def monitor(world):
    return ContinuousMonitor(QueryEngine(world, n_samples=150, seed=3))


def _extension_event(db, object_id):
    """A valid span-extending observation: replay the ground-truth walk."""
    obj = db.get(object_id)
    t = obj.t_last + 1
    return AddObservation(object_id, t, int(obj.ground_truth.states[-1]))


class TestSubscriptions:
    def test_auto_and_explicit_names(self, monitor, world):
        q = Query.from_point([5.0, 5.0])
        s1 = monitor.subscribe(QueryRequest(q, (1, 2)))
        s2 = monitor.subscribe(QueryRequest(q, (2, 3)), name="mine")
        assert s1.name == "sub-1" and s2.name == "mine"
        with pytest.raises(KeyError, match="already exists"):
            monitor.subscribe(QueryRequest(q, (1, 2)), name="mine")
        monitor.unsubscribe("mine")
        assert [s.name for s in monitor.subscriptions] == ["sub-1"]
        with pytest.raises(KeyError, match="unknown subscription"):
            monitor.unsubscribe("mine")

    def test_tuple_requests_coerced(self, monitor):
        q = Query.from_point([5.0, 5.0])
        sub = monitor.subscribe((q, (1, 2), "exists"))
        assert sub.request.mode == "exists"

    def test_sliding_window_needs_clock(self, monitor):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (1,)), window=SlidingWindow(width=3))
        with pytest.raises(ValueError, match="clock"):
            monitor.tick()

    def test_stream_must_share_database(self, world):
        other, _ = make_random_world(seed=8, n_objects=2, span=6, obs_every=3)
        with pytest.raises(ValueError, match="share one database"):
            ContinuousMonitor(
                QueryEngine(world, n_samples=10, seed=0),
                stream=ObservationStream(other),
            )


class TestTick:
    def test_first_tick_evaluates_everything(self, monitor):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4), "forall"), name="f")
        monitor.subscribe(QueryRequest(q, (2, 3), "pcnn", 0.2), name="p")
        report = monitor.tick()
        assert report.reevaluated == ("f", "p") and report.skipped == ()
        assert all(n.reason == "initial" and n.changed for n in report.notifications)
        assert all(n.report is not None for n in report.notifications)

    def test_quiet_tick_skips_everything(self, monitor):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        first = monitor.tick()
        quiet = monitor.tick()
        assert quiet.reevaluated == () and quiet.skipped == ("f",)
        assert quiet.reuse["sampler_calls"] == 0
        note = quiet.notifications[0]
        assert note.reason == "clean" and not note.changed
        # The cached result is re-delivered, not re-estimated.
        assert note.result is first.notifications[0].result

    def test_dirty_influencer_reevaluates_selectively(self, monitor, world):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        report = monitor.tick([_extension_event(world, target)])
        assert report.dirty == {target}
        assert report.reevaluated == ("f",)
        assert report.notifications[0].reason in (
            "dirty-influencer",
            "filter-changed",  # the new observation may move the filter sets
        )
        # Selective invalidation: only the dirty object was redrawn.
        assert report.reuse["cache_misses"] <= 1
        assert report.reuse["worlds_invalidated"] >= 1
        assert report.reuse["index_updates"] == 1
        assert report.reuse["index_rebuilds"] == 0

    def test_estimates_move_only_when_database_does(self):
        """Held-epoch deltas: a mutation that provably cannot reach the
        subscription (a new object pinned far away, pruned by the filter)
        is recognized as clean — the cached result is re-delivered."""
        from repro.markov.chain import MarkovChain
        from repro.statespace.base import StateSpace
        from repro.trajectory.database import TrajectoryDatabase
        from scipy import sparse

        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [500.0, 500.0]])
        chain = MarkovChain(
            sparse.csr_matrix(
                np.array(
                    [
                        [0.5, 0.5, 0.0, 0.0],
                        [0.5, 0.0, 0.5, 0.0],
                        [0.0, 0.5, 0.5, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                    ]
                )
            )
        )
        db = TrajectoryDatabase(StateSpace(coords), chain)
        db.add_object("a", [(0, 0), (4, 1)])
        db.add_object("b", [(0, 1), (4, 2)])
        monitor = ContinuousMonitor(QueryEngine(db, n_samples=100, seed=5))
        q = Query.from_point([0.0, 0.0])
        monitor.subscribe(QueryRequest(q, (1, 2, 3)), name="f")
        first = monitor.tick().notifications[0].result
        # The new object sits pinned at the far state: its dmin exceeds
        # every prune distance, so the filter sets cannot change.
        report = monitor.tick([AddObject("far", [(1, 3), (3, 3)])])
        note = report.notifications[0]
        assert note.reason == "clean" and not note.reevaluated
        assert note.result is first
        assert report.reuse["sampler_calls"] == 0

    def test_out_of_band_mutations_are_caught(self, monitor, world):
        """Mutations applied directly to the database (not through this
        tick's events) must still dirty the next tick — 'clean' means
        provably unchanged, not merely untouched-by-this-batch."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        event = _extension_event(world, target)
        world.add_observation(event.object_id, event.time, event.state)  # no tick
        report = monitor.tick()  # empty event batch
        assert target in report.dirty
        assert report.reevaluated == ("f",)

    def test_quiet_tick_skips_without_pruning(self, monitor, world):
        """A provably quiet tick must not even run the filter stage."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        monitor.tick()
        examined = monitor.engine.ust_tree
        calls = {"n": 0}
        original = examined.prune

        def counting_prune(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        examined.prune = counting_prune
        report = monitor.tick()
        assert report.skipped == ("f",) and calls["n"] == 0

    def test_log_overflow_forces_reevaluation(self, monitor, world):
        """When the mutation log cannot name the delta, everything must
        re-evaluate rather than trust stale 'clean' verdicts — and the
        report must flag that the empty dirty set means 'unattributable',
        not 'nothing changed'."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        assert monitor.tick().full_invalidation is False
        world.MUTATION_LOG_LIMIT = 2
        target = world.object_ids[0]
        for _ in range(4):
            event = _extension_event(world, target)
            world.add_observation(event.object_id, event.time, event.state)
        report = monitor.tick()
        note = report.notifications[0]
        assert note.reevaluated and note.reason == "unknown-mutations"
        assert report.full_invalidation is True

    def test_failed_tick_does_not_consume_the_delta(self, monitor, world):
        """An exception mid-tick must leave the dirty delta unconsumed:
        the retry tick still sees the mutation instead of serving the
        stale result as 'clean'."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        # A sliding subscription without a clock makes the next tick raise
        # *after* its events were ingested.
        monitor.subscribe(
            QueryRequest(q, (0,)), window=SlidingWindow(width=2), name="slide"
        )
        with pytest.raises(ValueError, match="clock"):
            monitor.tick([RemoveObject(target)])
        monitor.unsubscribe("slide")
        report = monitor.tick()  # retry without events
        assert target in report.dirty
        note = report.notifications[0]
        assert note.reevaluated
        assert target not in note.result.influencers

    def test_refresh_redraws_everything_once(self, monitor):
        """monitor.refresh(): the next tick re-evaluates every standing
        query against fresh worlds; subsequent ticks hold again."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        monitor.tick()
        held = monitor.tick()
        assert held.skipped == ("f",)
        monitor.refresh()
        report = monitor.tick()
        note = report.notifications[0]
        assert note.reevaluated and note.reason == "epoch-refresh"
        assert report.reuse["sampler_calls"] > 0  # genuinely redrawn
        quiet = monitor.tick()  # the refresh is one-shot
        assert quiet.skipped == ("f",)

    def test_backward_subscription_forces_coherent_refresh(self, monitor):
        """A mid-stream subscription over an *earlier* window would trigger
        the world cache's backward redraw under existing results; the
        monitor must refresh everything coherently instead of serving the
        silently-invalidated cached results as 'clean'."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (6, 7, 8)), name="late")
        monitor.tick()
        monitor.subscribe(QueryRequest(q, (0, 1, 2)), name="early")
        report = monitor.tick()
        by_name = {n.subscription: n for n in report.notifications}
        assert by_name["late"].reevaluated
        assert by_name["late"].reason == "window-union-extended"
        assert by_name["early"].reevaluated
        # Forward-extending subscriptions never force a refresh.
        monitor.subscribe(QueryRequest(q, (7, 8)), name="inner")
        quiet = monitor.tick()
        by_name = {n.subscription: n for n in quiet.notifications}
        assert by_name["inner"].reason == "initial"
        assert not by_name["late"].reevaluated

    def test_callback_errors_are_isolated(self, monitor):
        """One subscriber's raising callback must not rob the others of
        their notifications (the first error resurfaces afterwards)."""
        q = Query.from_point([5.0, 5.0])
        seen = []

        def boom(note):
            raise RuntimeError("subscriber bug")

        monitor.subscribe(QueryRequest(q, (2, 3)), boom, name="a")
        monitor.subscribe(QueryRequest(q, (2, 3)), seen.append, name="b")
        with pytest.raises(RuntimeError, match="callback 'a' raised"):
            monitor.tick()
        assert [n.subscription for n in seen] == ["b"]  # still delivered

    def test_interleaved_standalone_query_keeps_held_worlds(self, monitor):
        """A one-off query on the shared engine advances the epoch as a
        side effect; the next tick must restore the monitoring epoch, not
        treat it as a refresh."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        monitor.tick()
        monitor.engine.forall_nn(q, [2, 3])  # standalone, epoch side effect
        report = monitor.tick()
        assert report.skipped == ("f",)
        assert report.reuse["cache_misses"] == 0

    def test_removal_triggers_filter_change(self, monitor, world):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3, 4)), name="f")
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        report = monitor.tick([RemoveObject(target)])
        note = report.notifications[0]
        assert note.reevaluated and note.changed
        assert target not in note.result.influencers
        assert target not in note.result.probabilities

    def test_callbacks_fire_in_subscription_order(self, monitor):
        q = Query.from_point([5.0, 5.0])
        seen = []
        monitor.subscribe(
            QueryRequest(q, (2, 3)), lambda n: seen.append(n.subscription), name="a"
        )
        monitor.subscribe(
            QueryRequest(q, (3, 4)), lambda n: seen.append(n.subscription), name="b"
        )
        monitor.tick()
        monitor.tick()
        assert seen == ["a", "b", "a", "b"]  # every tick notifies every sub

    def test_tick_counts(self, monitor):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(QueryRequest(q, (2, 3)))
        monitor.tick()
        monitor.tick()
        metrics = monitor.engine.metrics
        assert monitor.ticks.value == 2
        assert metrics.total("scheduler_decisions_total") == 2
        assert metrics.value("scheduler_decisions_total", {"reason": "clean"}) == 1

    def test_tick_with_raising_callback_is_counted_once(self, monitor):
        """A tick whose callback raises is committed (its delta consumed,
        its notifications delivered), so the one tick count counts it."""
        q = Query.from_point([5.0, 5.0])

        def bug(_note):
            raise RuntimeError("subscriber bug")

        monitor.subscribe(QueryRequest(q, (2, 3)), bug, name="a")
        with pytest.raises(RuntimeError, match="callback 'a' raised"):
            monitor.tick()
        assert monitor.ticks.value == 1
        assert monitor.engine.metrics.value("monitor_ticks_total") == 1
        monitor.unsubscribe("a")
        monitor.tick()
        assert monitor.engine.metrics.value("monitor_ticks_total") == 2


class TestSlidingWindows:
    def test_times_follow_the_clock(self):
        w = SlidingWindow(width=3, lag=1)
        assert w.times_at(10) == (7, 8, 9)
        with pytest.raises(ValueError):
            SlidingWindow(width=0)
        with pytest.raises(ValueError):
            SlidingWindow(width=2, lag=-1)

    def test_window_moves_with_event_time(self, monitor, world):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(
            QueryRequest(q, (0,)), window=SlidingWindow(width=3), name="s"
        )
        r1 = monitor.tick(now=4)
        assert r1.notifications[0].times == (2, 3, 4)
        # No events, no clock movement: provably unchanged.
        r2 = monitor.tick()
        assert r2.skipped == ("s",)
        # An ingested observation advances the clock and slides the window.
        target = world.object_ids[0]
        r3 = monitor.tick([_extension_event(world, target)])
        assert r3.now == world.get(target).t_last
        assert r3.notifications[0].times[-1] == r3.now
        assert r3.notifications[0].reason == "window-moved"

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf")])
    def test_fractional_or_non_finite_now_refused(self, monitor, world, bad):
        """``tick(now=2.5)`` used to set the clock to 2 and ``now=nan``
        raised numpy's bare conversion error; either is refused before
        anything is ingested, leaving clock and database untouched."""
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(
            QueryRequest(q, (0,)), window=SlidingWindow(width=2), name="s"
        )
        monitor.tick(now=4)
        version = world.version
        target = world.object_ids[0]
        with pytest.raises(ValueError, match="now must be an integer"):
            monitor.tick([_extension_event(world, target)], now=bad)
        assert monitor.now == 4 and world.version == version
        assert monitor.tick(now=np.float64(6.0)).now == 6
        assert type(monitor.now) is int

    def test_explicit_now_wins(self, monitor):
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(
            QueryRequest(q, (0,)), window=SlidingWindow(width=2), name="s"
        )
        r = monitor.tick(now=6)
        assert r.now == 6 and r.notifications[0].times == (5, 6)
