"""One filter pass per tick and window: the shared § 6 filter's contract.

``QueryEngine.shared_filter`` lets the requests of a monitor tick (or an
``evaluate_many`` batch) share filter work: nothing is filtered until a
stage needs it, the first request that does has every registered peer with
the same ``(times, k)`` answered by the same ``USTTree.prune_many`` pass,
and the scheduler / ``evaluate`` / the serve tier's column prediction read
one stored result per ``(query, times, k)`` and database version.  Nothing
outlives the tick or batch.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov.chain import MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.stream import AddObject, AddObservation, ContinuousMonitor
from repro.stream.monitor import _result_payload
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory

pytestmark = [pytest.mark.stream, pytest.mark.tick_profile]

EARLY, LATE = (1, 2, 3), (13, 14, 15)
SIDE = 7  # the grid is SIDE × SIDE states, one unit apart
FAR = SIDE * SIDE  # state index of the far-away pinned object


def _world(seed=4):
    """Eight objects wandering a 7×7 grid near the origin over tics 0–16,
    plus ``far``, pinned a long way off: outside every influence set, so
    its mutations reach the scheduler's filter comparison."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(float(SIDE)), np.arange(float(SIDE))), -1).reshape(-1, 2)
    coords = np.vstack([grid, [[500.0, 500.0]]])
    mat = np.zeros((FAR + 1, FAR + 1))
    for i, a in enumerate(grid):
        near = np.flatnonzero(np.abs(grid - a).sum(axis=1) <= 1)
        mat[i, near] = rng.uniform(0.5, 1.0, size=near.size)
    mat[FAR, FAR] = 1.0
    chain = MarkovChain(sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True)))
    db = TrajectoryDatabase(StateSpace(coords), chain)
    for i in range(8):
        walk = [int(rng.integers(FAR))]
        for t in range(16):
            nxt, probs = chain.successors(walk[-1], t)
            walk.append(int(rng.choice(nxt, p=probs)))
        truth = Trajectory(0, np.asarray(walk))
        db.add_object(f"o{i}", truth.observe_every(4), ground_truth=truth)
    db.add_object("far", [(0, FAR), (4, FAR), (12, FAR), (16, FAR)])
    return db, rng


class _Passes:
    """Counts ``USTTree.prune_many`` kernel passes and their batch sizes."""

    def __init__(self, monkeypatch) -> None:
        self.batch_sizes: list[int] = []
        original = USTTree.prune_many

        def counted(tree, q_coords, times, k=1):
            self.batch_sizes.append(len(q_coords))
            return original(tree, q_coords, times, k)

        monkeypatch.setattr(USTTree, "prune_many", counted)

    def take(self) -> list[int]:
        taken, self.batch_sizes = self.batch_sizes, []
        return taken


@pytest.fixture
def monitor():
    """24 standing queries, half over the early window, half over the late."""
    db, rng = _world()
    monitor = ContinuousMonitor(QueryEngine(db, n_samples=64, seed=9))
    for s in range(24):
        q = Query.from_point(rng.uniform(0, SIDE - 1, size=2))
        mode = "forall" if s % 4 < 2 else "exists"
        monitor.subscribe(QueryRequest(q, EARLY if s % 2 else LATE, mode, 0.05), name=f"s{s}")
    return monitor


class TestKernelPassesPerTick:
    def test_first_tick_filters_each_window_once(self, monitor, monkeypatch):
        passes = _Passes(monkeypatch)
        report = monitor.tick()
        assert len(report.reevaluated) == 24
        assert passes.take() == [12, 12]

    def test_quiet_and_range_disjoint_ticks_filter_nothing(self, monitor, monkeypatch):
        monitor.tick()
        passes = _Passes(monkeypatch)
        assert len(monitor.tick().skipped) == 24
        # far's [4, 12] segment touches neither window.
        report = monitor.tick([AddObservation("far", 8, FAR)])
        assert report.dirty == {"far"} and len(report.skipped) == 24
        assert passes.take() == []

    def test_one_dirty_range_in_one_window_is_one_pass(self, monitor, monkeypatch):
        monitor.tick()
        passes = _Passes(monkeypatch)
        filtered = []
        original = monitor.engine.filter_objects
        monkeypatch.setattr(
            monitor.engine,
            "filter_objects",
            lambda *a, **kw: filtered.append(a) or original(*a, **kw),
        )
        # far's [0, 4] segment: the early window's twelve subscriptions must
        # compare filter sets, the late window's are clean by range alone.
        report = monitor.tick([AddObservation("far", 2, FAR)])
        assert len(filtered) == 12
        assert {n.reason for n in report.notifications} == {"clean"}
        assert passes.take() == [12]

    def test_only_subscriptions_that_will_filter_share_the_pass(self, monitor, monkeypatch):
        """A fix inside the early window by an object that also influences
        some late-window subscriptions: those are due (their worlds moved)
        and filter in their evaluation — without dragging the late
        window's clean subscriptions through the kernel."""
        monitor.tick()
        db = monitor.engine.db
        late_subs = [s for s in monitor.subscriptions if s.request.times == LATE]
        counts = {
            oid: sum(oid in s.last_influencers for s in late_subs) for oid in db.object_ids
        }
        target = min((oid for oid in counts if counts[oid]), key=counts.get)
        late_due = counts[target]
        assert 0 < late_due < 12
        passes = _Passes(monkeypatch)
        state = int(db.get(target).ground_truth.states[2])
        report = monitor.tick([AddObservation(target, 2, state)])  # affects tics [0, 4]
        assert sorted(passes.take()) == [late_due, 12]
        late = [n for n in report.notifications if n.times == LATE]
        assert sorted(n.reason for n in late) == ["clean"] * (12 - late_due) + [
            "dirty-influencer"
        ] * late_due

    def test_filter_changed_subscription_is_not_pruned_again(self, monitor, monkeypatch):
        monitor.tick()
        passes = _Passes(monkeypatch)
        monkeypatch.setattr(
            USTTree, "prune", lambda *a, **kw: pytest.fail("single-query prune in a tick")
        )
        # A new object in the middle of the grid, alive over both windows.
        report = monitor.tick([AddObject("new", [(0, FAR // 2), (16, FAR // 2)])])
        reasons = [n.reason for n in report.notifications]
        assert reasons.count("filter-changed") >= 12
        for note in report.notifications:
            if note.reason == "filter-changed":
                assert "new" in note.result.influencers
        # 24 filter comparisons, up to 24 evaluations: two kernel passes, no single prune.
        assert passes.take() == [12, 12]

    def test_distinct_k_is_a_distinct_group(self, monkeypatch):
        db, _ = _world()
        engine = QueryEngine(db, n_samples=32, seed=1)
        q = Query.from_point([1.0, 1.0])
        passes = _Passes(monkeypatch)
        engine.evaluate_many(
            [
                QueryRequest(q, EARLY, "exists", k=1),
                QueryRequest(q, EARLY, "forall", k=1),  # same (query, times, k)
                QueryRequest(Query.from_point([2.0, 2.0]), EARLY, "exists", k=1),
                QueryRequest(q, EARLY, "exists", k=2),
                QueryRequest(q, EARLY, "reverse_nn"),  # never reaches the index
            ]
        )
        assert passes.take() == [2, 1]


class TestMemoLifetime:
    def test_nothing_is_kept_after_a_tick_or_batch(self, monitor):
        engine = monitor.engine
        monitor.tick()
        assert engine._filter_memo is None
        engine.evaluate_many([s.request for s in monitor.subscriptions[:3]])
        assert engine._filter_memo is None
        engine.evaluate(monitor.subscriptions[0].request)
        assert engine._filter_memo is None

    def test_nothing_is_kept_after_a_raise(self, monitor):
        engine = monitor.engine
        too_deep = QueryRequest(Query.from_point([1.0, 1.0]), EARLY, k=40)
        with pytest.raises(ValueError, match="competitor pool"):
            engine.evaluate_many([monitor.subscriptions[0].request, too_deep])
        assert engine._filter_memo is None
        monitor.subscribe(too_deep, name="too-deep")
        with pytest.raises(ValueError, match="competitor pool"):
            monitor.tick()
        assert engine._filter_memo is None

    def test_mutation_inside_a_batch_is_answered_from_the_new_version(self):
        db, _ = _world()
        engine = QueryEngine(db, n_samples=64, seed=3)
        request = QueryRequest(Query.from_point([1.0, 1.0]), EARLY, "exists")
        with engine.shared_filter([request]):
            before = engine.explain(request)
            assert engine.explain(request).influencers == before.influencers
            gone = before.influencers[0]
            db.remove_object(gone)
            after = engine.evaluate(request)
        assert gone not in after.influencers
        fresh = QueryEngine(db, n_samples=64, seed=3).evaluate(request)
        assert _result_payload(after) == _result_payload(fresh)

    def test_shared_results_equal_standalone_results(self, monitor):
        """Batched or not, a request's filter result is the same."""
        engine = monitor.engine
        requests = [s.request for s in monitor.subscriptions]
        with engine.shared_filter(requests):
            shared = [engine.explain(r) for r in requests]
        for request, explanation in zip(requests, shared):
            alone = engine.explain(request)
            assert alone.candidates == explanation.candidates
            assert alone.influencers == explanation.influencers
            assert alone.examined_entries == explanation.examined_entries
