"""Tick latency profile: stage timings, dirty-column accounting, skips.

Observability and cost-attribution guarantees of the steady-state monitor
tick: ``TickReport.stage_seconds`` decomposes the wall time, the
``estimate_*`` reuse counters expose the dirty-column tensor cache, the
ranged skip proves cleanliness without running the filter stage, and the
ingest-to-ready world pass looks up what the coalesced evaluation reads —
dirty influencers and every sampling request's stale live columns — in
one call before it.  Marked ``tick_profile`` so CI can gate the profile
contract in its own step per matrix version.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov.chain import MarkovChain
from repro.statespace.base import StateSpace
from repro.stream import AddObservation, ContinuousMonitor
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_random_world

pytestmark = [pytest.mark.stream, pytest.mark.tick_profile]

STAGES = ("ingest", "schedule", "evaluate", "filter", "estimate", "notify")


def _refinement_event(db, object_id, segment=1):
    """An interior ground-truth fix inside ``object_id``'s given segment —
    tightens diamonds without extending the object's lifespan."""
    obj = db.get(object_id)
    obs_times = [o.time for o in obj.observations]
    t = (obs_times[segment] + obs_times[segment + 1]) // 2
    assert t not in obs_times
    return AddObservation(object_id, t, int(obj.ground_truth.states[t]))


@pytest.fixture
def world():
    db, _ = make_random_world(seed=21, n_objects=6, span=12, obs_every=4)
    return db


@pytest.fixture
def monitor(world):
    engine = QueryEngine(world, n_samples=120, seed=7)
    monitor = ContinuousMonitor(engine)
    q = Query.from_point([5.0, 5.0])
    monitor.subscribe(QueryRequest(q, (4, 5, 6, 7), "forall", 0.05), name="f")
    return monitor


class TestStageSeconds:
    def test_all_stages_reported(self, monitor):
        report = monitor.tick()
        assert set(report.stage_seconds) == set(STAGES)
        assert all(v >= 0.0 for v in report.stage_seconds.values())

    def test_evaluate_contains_filter_and_estimate(self, monitor, world):
        monitor.tick()
        report = monitor.tick([_refinement_event(world, world.object_ids[0])])
        stages = report.stage_seconds
        # filter/estimate are the summed per-request stage timings inside
        # the coalesced evaluate_many call — nested intervals cannot
        # exceed the enclosing one.
        assert stages["evaluate"] >= stages["filter"] + stages["estimate"] - 1e-6

    def test_skipped_tick_runs_no_evaluation_stages(self, monitor):
        monitor.tick()
        report = monitor.tick()  # quiet: provably clean, nothing due
        assert report.reevaluated == ()
        assert report.stage_seconds["evaluate"] == 0.0
        assert report.stage_seconds["filter"] == 0.0
        assert report.stage_seconds["estimate"] == 0.0


class TestDirtyColumnAccounting:
    def test_cold_start_counts_misses(self, monitor):
        report = monitor.tick()
        assert report.reuse["estimate_cache_misses"] >= 1
        assert report.reuse["estimate_cache_hits"] == 0
        assert report.reuse["estimate_columns_refreshed"] >= 1
        assert report.reuse["estimate_columns_reused"] == 0

    def test_quiet_tick_touches_nothing(self, monitor):
        monitor.tick()
        report = monitor.tick()
        for key in (
            "estimate_cache_hits",
            "estimate_cache_misses",
            "estimate_columns_reused",
            "estimate_columns_refreshed",
        ):
            assert report.reuse[key] == 0

    def test_refinement_tick_patches_only_dirty_columns(self, monitor, world):
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        n_influencers = len(first.notifications[0].result.influencers)
        report = monitor.tick([_refinement_event(world, target)])
        assert report.reevaluated == ("f",)
        assert report.reuse["estimate_cache_hits"] == 1
        assert report.reuse["estimate_cache_misses"] == 0
        assert report.reuse["estimate_columns_refreshed"] == 1
        assert report.reuse["estimate_columns_reused"] == n_influencers - 1

    def test_overflowed_log_counts_full_refreshes(self, monitor, world):
        """Past ``MUTATION_LOG_LIMIT`` the database cannot name what an
        ingest touched: the same refinement tick is a miss that refreshes
        every column — the wholesale fallback, through its real trigger."""
        world.MUTATION_LOG_LIMIT = 0
        first = monitor.tick()
        target = first.notifications[0].result.influencers[0]
        n_influencers = len(first.notifications[0].result.influencers)
        report = monitor.tick([_refinement_event(world, target)])
        assert report.reevaluated == ("f",)
        assert report.reuse["index_rebuilds"] == 1
        assert report.reuse["estimate_cache_hits"] == 0
        assert report.reuse["estimate_cache_misses"] == 1
        assert report.reuse["estimate_columns_reused"] == 0
        assert report.reuse["estimate_columns_refreshed"] == n_influencers


class TestRangedSkip:
    def _far_world(self):
        """Objects near the origin plus one pinned far away, observed
        densely enough that its segments have bounded affected ranges."""
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [500.0, 500.0]])
        chain = MarkovChain(
            sparse.csr_matrix(
                np.array(
                    [
                        [0.4, 0.6, 0.0, 0.0],
                        [0.5, 0.0, 0.5, 0.0],
                        [0.0, 0.6, 0.4, 0.0],
                        [0.0, 0.0, 0.0, 1.0],
                    ]
                )
            )
        )
        db = TrajectoryDatabase(StateSpace(coords), chain)
        db.add_object("a", [(0, 0), (6, 1)])
        db.add_object("b", [(0, 1), (6, 2)])
        db.add_object("far", [(0, 3), (4, 3), (12, 3)])
        return db

    def test_disjoint_range_skips_without_filtering(self, monkeypatch):
        """A mutation whose affected time range misses the window — by an
        object outside the influence set — is provably clean without even
        running the filter stage (the pre-ranges scheduler had to prune)."""
        db = self._far_world()
        engine = QueryEngine(db, n_samples=100, seed=5)
        monitor = ContinuousMonitor(engine)
        q = Query.from_point([0.0, 0.0])
        monitor.subscribe(QueryRequest(q, (1, 2, 3), "forall", 0.1), name="f")
        first = monitor.tick()
        assert "far" not in first.notifications[0].result.influencers

        def boom(*args, **kwargs):  # pragma: no cover - the assertion is "not called"
            raise AssertionError("filter stage ran for a provably clean tick")

        monkeypatch.setattr(engine, "filter_objects", boom)
        # Refining far's [4, 12] segment cannot reach the (1, 2, 3) window.
        report = monitor.tick([AddObservation("far", 8, 3)])
        note = report.notifications[0]
        assert report.dirty == {"far"}
        assert note.reason == "clean" and not note.reevaluated
        assert report.reuse["sampler_calls"] == 0

    def test_intersecting_range_still_checks(self):
        """The same mutation moved into the window's span falls back to
        the filter comparison (here: still clean, but checked)."""
        db = self._far_world()
        engine = QueryEngine(db, n_samples=100, seed=5)
        monitor = ContinuousMonitor(engine)
        q = Query.from_point([0.0, 0.0])
        monitor.subscribe(QueryRequest(q, (1, 2, 3), "forall", 0.1), name="f")
        monitor.tick()
        before = engine.metrics.total("scheduler_decisions_total")
        report = monitor.tick([AddObservation("far", 2, 3)])  # affects [0, 4]
        note = report.notifications[0]
        assert note.reason == "clean" and not note.reevaluated
        assert engine.metrics.total("scheduler_decisions_total") == before + 1


class TestIngestPrefetch:
    @staticmethod
    def _record(monitor, monkeypatch):
        """Each ``stage`` call's warm ids, window, requests and the lookups
        of its world pass: the ones no staged block's lookups account for."""
        calls = []
        engine = monitor.engine
        original = engine.stage

        def counts():
            worlds = engine.worlds
            return worlds.hits.value, worlds.partial_hits.value, worlds.misses.value

        def recorded(requests, *, refresh_worlds=True, window=None, warm=()):
            before = counts()
            stage = original(requests, refresh_worlds=refresh_worlds, window=window, warm=warm)
            blocks = [staged.lookups for staged in stage.staged if staged is not None]
            hits, partial_hits, misses = (
                now - then - sum(lookups[i] for lookups in blocks)
                for i, (now, then) in enumerate(zip(counts(), before))
            )
            looked_up = {
                "objects": hits + partial_hits + misses,
                "hits": hits,
                "partial_hits": partial_hits,
                "misses": misses,
            }
            calls.append((tuple(warm), window, tuple(requests), looked_up))
            return stage

        monkeypatch.setattr(engine, "stage", recorded)
        return calls

    def test_dirty_influencer_worlds_prefetched(self, monitor, world, monkeypatch):
        """One stage call per tick over the union window, warming the dirty
        influencer: the due evaluation's fill looks it up itself, once, so
        the warm-up looks up nothing of its own."""
        calls = self._record(monitor, monkeypatch)
        first = monitor.tick()
        influencers = first.notifications[0].result.influencers
        # First tick: every influencer is drawn by the staged fill, and the
        # evaluation's report carries those lookups.
        [(object_ids, _, _, looked_up)] = calls
        assert object_ids == () and looked_up["objects"] == 0
        assert first.notifications[0].report.cache_misses == len(influencers)
        assert first.notifications[0].report.cache_hits == 0
        target = influencers[0]
        calls.clear()
        report = monitor.tick([_refinement_event(world, target)])
        request = monitor.subscriptions[0].request_at(monitor.now)
        [(object_ids, window, requests, looked_up)] = calls
        assert (object_ids, window, requests) == ((target,), (4, 7), (request,))
        # The refine cache holds the request's block: its fill is handed
        # the dirty column alone, which is the warm target itself.
        assert len(influencers) > 1
        assert looked_up == {"objects": 0, "hits": 0, "partial_hits": 0, "misses": 0}
        note = report.notifications[0]
        assert note.reason == "dirty-influencer"
        # The refine cache refills the dirty column alone, redrawing it.
        assert note.report.cache_hits == note.report.cache_partial_hits == 0
        assert note.report.cache_misses == 1

    def test_hybrid_influencers_stay_out(self, world, monkeypatch):
        """A hybrid subscription draws its undecided objects itself: only
        the dirty influencer is prefetched for it."""
        monitor = ContinuousMonitor(QueryEngine(world, n_samples=120, seed=7))
        q = Query.from_point([5.0, 5.0])
        monitor.subscribe(
            QueryRequest(q, (4, 5, 6, 7), "forall", 0.05, estimator="hybrid"), name="h"
        )
        calls = self._record(monitor, monkeypatch)
        first = monitor.tick()
        influencers = first.notifications[0].result.influencers
        assert len(influencers) > 1
        assert calls[0][3]["objects"] == 0  # nothing drawn ahead for it
        calls.clear()
        monitor.tick([_refinement_event(world, influencers[0])])
        [(object_ids, window, requests, looked_up)] = calls
        assert (object_ids, window, len(requests)) == ((influencers[0],), (4, 7), 1)
        assert looked_up["objects"] == 1

    def test_no_prefetch_when_nothing_due(self, monitor, world, monkeypatch):
        monitor.tick()
        calls = []
        monkeypatch.setattr(
            monitor.engine,
            "stage",
            lambda *args, **kwargs: calls.append((args, kwargs)),
        )
        monitor.tick()  # quiet
        assert calls == []
