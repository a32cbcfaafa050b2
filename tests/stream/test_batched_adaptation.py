"""One adaptation sweep per pooling site: the batched kernel on the tick path.

The engine adapts lazily, where sampling needs a model — and the arena
packing behind every draw hands all objects still to be derived to one
``adapt_many`` call.  A monitor tick draws once, in its world pass (the
dirty influencers and everything the due evaluations read), so on a
fleet-shaped stream (one homogeneous chain, fixes at equal gaps) a tick
runs the kernel once and the arena once, however many objects joined; a
tick that needs no new model runs it not at all; and which objects
happened to share a sweep never shows in the results.  A contradicting object is refused at ingest — even where
only a stored zero makes it contradict — and, with that check switched
off, fails alone.
"""

import numpy as np
import pytest
from scipy import sparse

import repro.core.evaluator as evaluator_module
import repro.trajectory.trajectory as trajectory_module
from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov import adaptation
from repro.markov.adaptation import ObservationContradictionError, adapt_model
from repro.markov.chain import MarkovChain
from repro.statespace.base import StateSpace
from repro.stream import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    RemoveObject,
    SlidingWindow,
)
from repro.stream.monitor import _result_payload
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.diamonds import reachable_states
from tests.oracles import same_model

pytestmark = [pytest.mark.stream, pytest.mark.tick_profile]

SIDE = 9  # the grid is SIDE × SIDE states, one unit apart
HUB, BLOCKED = 40, 41  # see _chain(blocked=True)
RATE, LIFE, FIX, LINGER = 3, 9, 3, 2
HORIZON = 10


def _chain(rng, blocked=False):
    """Random moves to the four grid neighbours (or none).  With ``blocked``
    the hub's step to its right-hand neighbour, though stored, never
    happens: reachable for the § 6 diamonds, impossible for Algorithm 2."""
    grid = np.stack(np.meshgrid(np.arange(float(SIDE)), np.arange(float(SIDE))), -1).reshape(-1, 2)
    mat = np.zeros((SIDE * SIDE, SIDE * SIDE))
    for i, a in enumerate(grid):
        near = np.flatnonzero(np.abs(grid - a).sum(axis=1) <= 1)
        mat[i, near] = rng.uniform(0.5, 1.0, size=near.size)
    csr = sparse.csr_matrix(mat)
    if blocked:
        row = slice(csr.indptr[HUB], csr.indptr[HUB + 1])
        csr.data[row] = np.where(csr.indices[row] == BLOCKED, 0.0, csr.data[row])
    csr.data /= np.repeat(np.asarray(csr.sum(axis=1)).ravel(), np.diff(csr.indptr))
    return StateSpace(grid), MarkovChain(csr)


def _fleet(seed=4):
    """``RATE`` objects start every tic, report every ``FIX`` tics over
    ``LIFE`` and leave ``LINGER`` tics later: every tick applies the same mix
    of adds (at an object's 2nd fix), head appends and removes."""
    rng = np.random.default_rng(seed)
    space, chain = _chain(rng)
    batches = [[] for _ in range(HORIZON)]
    stay = LIFE + LINGER
    starts = [t for t in range(-stay + 1, HORIZON) for _ in range(RATE)]
    for i, start in enumerate(starts):
        walk = [int(rng.integers(chain.n_states))]
        for t in range(LIFE):
            nxt, probs = chain.successors(walk[-1], t)
            walk.append(int(rng.choice(nxt, p=probs)))
        fixes = [(start + k, walk[k]) for k in range(0, LIFE + 1, FIX)]
        enter = max(fixes[1][0], 0)
        events = [(enter, AddObject(f"v{i}", [f for f in fixes if f[0] <= enter]))]
        events += [(f[0], AddObservation(f"v{i}", *f)) for f in fixes if f[0] > enter]
        events.append((start + stay, RemoveObject(f"v{i}")))
        for t, event in events:
            if 0 <= t < HORIZON:
                batches[t].append(event)
    monitor = ContinuousMonitor(
        QueryEngine(TrajectoryDatabase(space, chain), n_samples=32, seed=9)
    )
    for s in range(6):
        q = Query.from_point(rng.uniform(0, SIDE - 1, size=2))
        request = QueryRequest(q, (0,), ("forall", "exists")[s % 2], 0.05)
        monitor.subscribe(request, name=f"s{s}", window=SlidingWindow(width=3, lag=2))
    return monitor, batches


class _Sweeps:
    """Counts kernel passes (with their batch sizes) and the pooling sites
    that had something to derive (with their object counts)."""

    def __init__(self, monkeypatch) -> None:
        self.sweeps: list[int] = []
        self.sites: list[int] = []
        sweep, many = adaptation._sweep, trajectory_module.adapt_many

        def counted_sweep(mats, n_states, keys):
            self.sweeps.append(len(keys))
            return sweep(mats, n_states, keys)

        def counted_site(requests):
            if requests:
                self.sites.append(len(requests))
            return many(requests)

        monkeypatch.setattr(adaptation, "_sweep", counted_sweep)
        monkeypatch.setattr(trajectory_module, "adapt_many", counted_site)

    def take(self) -> tuple[list[int], list[int]]:
        taken = self.sweeps, self.sites
        self.sweeps, self.sites = [], []
        return taken


def _payloads(report):
    return [
        (n.subscription, n.reason, n.times, _result_payload(n.result))
        for n in report.notifications
    ]


class TestKernelPassesPerTick:
    def test_one_sweep_per_pooling_site_not_per_object(self, monkeypatch):
        """The tick's world pass is its one pooling site: one sweep and one
        arena draw per tick, whatever the due evaluations read."""
        monitor, batches = _fleet()
        counts = _Sweeps(monkeypatch)
        draws = []
        draw = evaluator_module.sample_paths_arena

        def counted_draw(arena, requests, n):
            draws.append(len(requests))
            return draw(arena, requests, n)

        monkeypatch.setattr(evaluator_module, "sample_paths_arena", counted_draw)
        pooled = 0
        for now, events in enumerate(batches):
            kinds = {type(event) for event in events}
            assert kinds == {AddObject, AddObservation, RemoveObject} or now < FIX
            report = monitor.tick(events, now=now)
            assert len(report.reevaluated) == 6  # every window moved
            sweeps, sites = counts.take()
            # One chain, equal gaps: what the tick pooled is one group.
            assert len(sweeps) == len(sites) == 1
            assert sweeps[0] >= sites[0] >= 3
            pooled += sites[0] - 1
            assert len(draws) == 1 and draws[0] >= sites[0]
            draws.clear()
        assert pooled >= 2 * HORIZON

    def test_ticks_that_need_no_new_model_run_no_sweep(self, monkeypatch):
        monitor, batches = _fleet()
        for now, events in enumerate(batches):
            monitor.tick(events, now=now)
        counts = _Sweeps(monkeypatch)
        now = HORIZON - 1
        assert len(monitor.tick([], now=now).skipped) == 6
        # Lifespans entirely after (and before) every window: dirty objects
        # nobody samples.
        report = monitor.tick(
            [
                AddObject("later", [(now + 5, 3), (now + 8, 3)]),
                AddObject("earlier", [(now - 30, 3), (now - 27, 3)]),
            ],
            now=now,
        )
        assert report.dirty == {"later", "earlier"}
        report = monitor.tick([AddObservation("later", now + 11, 3)], now=now)
        assert report.dirty == {"later"}
        assert counts.take() == ([], [])
        assert not monitor.engine.db.get("later").is_adapted()

    def test_results_do_not_depend_on_who_shared_a_sweep(self, monkeypatch):
        monitor, batches = _fleet()
        batched = [_payloads(monitor.tick(events, now=now)) for now, events in enumerate(batches)]

        def one_at_a_time(objects):
            for obj in objects:
                trajectory_module.adapt_objects([obj])

        monkeypatch.setattr(evaluator_module, "adapt_objects", one_at_a_time)
        counts = _Sweeps(monkeypatch)
        monitor, batches = _fleet()
        alone = [_payloads(monitor.tick(events, now=now)) for now, events in enumerate(batches)]
        sweeps, sites = counts.take()
        assert sites == [1] * len(sweeps) and len(sweeps) > 3 * HORIZON
        assert alone == batched


# ----------------------------------------------------------------------
# a contradicting object fails alone
# ----------------------------------------------------------------------
GOOD_1 = [(0, HUB - 1), (1, HUB), (2, HUB + SIDE)]
BAD = [(0, HUB - 1), (1, HUB), (2, BLOCKED)]  # the step that never happens
GOOD_2 = [(0, HUB - SIDE), (2, HUB - SIDE)]
REQUEST = QueryRequest(Query.from_point([4.0, 4.0]), (0, 1, 2), "exists", 0.0)


def _engine(histories, seed=5):
    space, chain = _chain(np.random.default_rng(4), blocked=True)
    db = TrajectoryDatabase(space, chain)
    for object_id, observations in histories.items():
        db.add_object(object_id, observations)
    return QueryEngine(db, n_samples=48, seed=seed)


def _check_fails_alone(db, touch):
    """``touch()`` reaches ``bad`` among its peers and raises *its* error."""
    with pytest.raises(ObservationContradictionError) as alone:
        adapt_model(db.chain, BAD)
    assert "observation (t=2, state=41) has zero probability" in str(alone.value)
    for _ in range(2):  # ... and again, on every access
        with pytest.raises(ObservationContradictionError) as raised:
            touch()
        assert str(raised.value) == str(alone.value)
        assert not db.get("bad").is_adapted()
    for object_id, observations in (("good1", GOOD_1), ("good2", GOOD_2)):
        assert db.get(object_id).is_adapted()
        same_model(
            db.get(object_id).adapted, adapt_model(db.chain, observations), (object_id,)
        )


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_ingest_refuses_the_step_that_never_happens():
    """The trap: the stored-but-zero step is reachable for the diamonds'
    stored-edge walk, so only a check along positive-probability edges
    refuses it — before it lands, directly or through a monitor tick."""
    space, chain = _chain(np.random.default_rng(4), blocked=True)
    assert BLOCKED in reachable_states(chain, HUB, 1, 1)[-1]
    db = TrajectoryDatabase(space, chain)
    never = r"\(t=2, state=41\) is unreachable from observation \(t=1, state=40\)"
    with pytest.raises(ObservationContradictionError, match=f"object 'bad': observation {never}"):
        db.add_object("bad", BAD)
    db.add_object("bad", [(0, HUB - 1), (4, BLOCKED)])
    with pytest.raises(ObservationContradictionError, match=r"\(t=4, state=41\) is unreachable"):
        db.add_observation("bad", 3, HUB)
    assert db.get("bad").observations.as_pairs() == [(0, HUB - 1), (4, BLOCKED)]
    monitor = ContinuousMonitor(QueryEngine(db, n_samples=48, seed=5))
    monitor.subscribe(REQUEST, name="standing")
    monitor.tick()
    with pytest.raises(ObservationContradictionError, match=r"event 1 \(object 'bad2'\)"):
        monitor.tick([AddObject("good1", GOOD_1), AddObject("bad2", BAD)])
    assert db.object_ids == ["bad"]
    monitor.tick([AddObject("good1", GOOD_1)])


# A stored 0.0 can leave a reachable state without posterior mass: a 0/0 row
# nobody samples, in the per-object reference sweep exactly as in the kernel.
# With the ingest check switched off, a contradicting object still fails alone.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.usefixtures("unchecked_reachability")
class TestBatchPeersFailAlone:
    def test_through_one_evaluate(self):
        engine = _engine({"good1": GOOD_1, "bad": BAD, "good2": GOOD_2})
        assert sorted(engine.explain(REQUEST).influencers) == ["bad", "good1", "good2"]
        _check_fails_alone(engine.db, lambda: engine.evaluate(REQUEST))
        # Without the offender the same engine answers like one that never met it.
        engine.db.remove_object("bad")
        clean = _engine({"good1": GOOD_1, "good2": GOOD_2})
        assert _result_payload(engine.evaluate(REQUEST)) == _result_payload(
            clean.evaluate(REQUEST)
        )

    def test_through_one_monitor_tick(self):
        monitor = ContinuousMonitor(_engine({}))
        monitor.subscribe(REQUEST, name="standing")
        events = [AddObject("good1", GOOD_1), AddObject("bad", BAD), AddObject("good2", GOOD_2)]
        monitor.tick()
        db = monitor.engine.db
        batches = iter([events, []])  # the second tick brings nothing new and raises again
        _check_fails_alone(db, lambda: monitor.tick(next(batches)))
        report = monitor.tick([RemoveObject("bad")])
        clean = ContinuousMonitor(_engine({"good1": GOOD_1, "good2": GOOD_2}))
        clean.subscribe(REQUEST, name="standing")
        assert _payloads(report)[0][3] == _payloads(clean.tick())[0][3]

    def test_an_interior_fix_that_contradicts_leaves_the_donor_whole(self):
        # Four tics are enough to walk round the hub; a sighting *at* the hub
        # one tic before the end leaves only the step that never happens.
        roundabout = [(0, HUB - 1), (4, BLOCKED)]
        engine = _engine({"good1": GOOD_1, "bad": roundabout, "good2": GOOD_2})
        assert "bad" in engine.evaluate(REQUEST).influencers
        donor = engine.db.get("bad").adapted
        segments = [(seg, seg.compiled) for seg in donor.segments]
        assert segments[0][1] is not None
        engine.db.add_observation("bad", 3, HUB)
        for _ in range(2):
            with pytest.raises(ObservationContradictionError, match=r"\(t=4, state=41\)"):
                engine.evaluate(REQUEST)
        assert [(seg, seg.compiled) for seg in donor.segments] == segments
        assert not engine.db.get("bad").is_adapted()
