"""The four workloads: inputs (numpy only), set-up, one op, output checks.

Engines are built with production defaults only — no ``backend=`` /
``fused=`` / ``incremental=`` switches — so a change of a default shows up
here.  The program-facing code depends on this public surface and nothing
else: ``StateSpace``, ``MarkovChain``, ``TrajectoryDatabase``,
``Query.from_point``, ``QueryRequest``, ``QueryEngine.evaluate``,
``ContinuousMonitor.subscribe/tick``, ``SlidingWindow``,
``AddObject/AddObservation/RemoveObject``,
``ServeCoordinator.subscribe/tick/close`` and ``repro.analysis.hoeffding``.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np

from generate import Network, spread_points, thin
from harness import closed_loop, digest_of
from repro import (
    AddObject,
    AddObservation,
    ContinuousMonitor,
    MarkovChain,
    Query,
    QueryEngine,
    QueryRequest,
    RemoveObject,
    ServeCoordinator,
    SlidingWindow,
    StateSpace,
    TrajectoryDatabase,
)
from repro.analysis.hoeffding import confidence_radius

#: Confidence of one output check; thousands of comparisons per run stay
#: far below one expected false alarm.
CHECK_DELTA = 1e-6
#: The checking engine draws this many times the workload's worlds.
CHECK_WORLDS_FACTOR = 4


def _new_database(net: Network) -> TrajectoryDatabase:
    return TrajectoryDatabase(StateSpace(net.coords), MarkovChain(net.matrix))


def _result_items(result) -> list:
    """The user-visible ``(object, probability)`` content of a result."""
    if hasattr(result, "entries"):  # PCNN: one probability per (object, T_i)
        return sorted((e.object_id, e.times, e.probability) for e in result.entries)
    return sorted(result.probabilities.items())


def _probabilities(result) -> dict:
    if hasattr(result, "entries"):
        return {(e.object_id, e.times): e.probability for e in result.entries}
    return dict(result.probabilities)


def _agree(got: dict, want: dict, radius: float, *, pcnn: bool) -> bool:
    """Two estimates of the same probabilities, within the summed radii.

    PCNN answers list only the timestamp sets that passed τ, so the two
    sides are compared where both report; the other kinds report every
    refined object and a missing one counts as probability 0.
    """
    keys = got.keys() & want.keys() if pcnn else got.keys() | want.keys()
    for key in keys:
        pa, pb = got.get(key, 0.0), want.get(key, 0.0)
        if not (0.0 <= pa <= 1.0 and abs(pa - pb) <= radius):
            return False
    return True


class Workload:
    """Common shape: ``generate`` → ``setup`` → ``run_op``* → ``verify`` → ``close``."""

    name: str
    #: Phase-B input rate, about half of the closed-loop capacity measured on
    #: the 2-core reference box when the benchmark was defined.  A constant:
    #: deriving it from the run would hand a faster program more load.
    open_rate_hz: float
    #: Ops whose outputs make up ``result_digest``.
    digest_ops: int
    worlds: int
    #: Single-process time ÷ this workload's time over the same ticks; only
    #: the serve workload measures it (during its output check).
    speedup_vs_single = 0.0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        #: Counts read off the program's public reports, summed over ops.
        self.counters: Counter = Counter()
        self.n_ops = 0

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def _check_radius(self) -> float:
        return confidence_radius(self.worlds, CHECK_DELTA) + confidence_radius(
            self.worlds * CHECK_WORLDS_FACTOR, CHECK_DELTA
        )

    def close(self) -> None:
        pass


# --------------------------------------------------------------------------
class AdhocQuery(Workload):
    """The paper's own experiment: standalone P∀NN / P∃NN / PCNN queries."""

    name = "adhoc_query"
    open_rate_hz = 50.0
    digest_ops = 200
    MODES = (("forall", 0.1), ("exists", 0.1), ("pcnn", 0.5))
    CHECK_EVERY, MAX_CHECKS = 20, 60

    def generate(self) -> None:
        s = self.smoke
        n_objects, life, horizon = (16, 20, 30) if s else (80, 40, 60)
        n_states, span = (300, 6) if s else (1000, 10)
        self.worlds = 200 if s else 1000
        self.n_random_warm = 5 if s else 50
        self.n_ops = 3000 if s else 8000
        rng = self._rng(1)
        self.net = Network(rng, n_states, k_nn=6)
        starts = rng.integers(0, horizon - life + 1, size=n_objects)
        walks = self.net.walks(rng, n_objects, life)
        self.observations = [
            thin(int(starts[i]), walks[i], obs_every=5) for i in range(n_objects)
        ]
        points = rng.uniform(10.0, 90.0, size=(self.n_random_warm + self.n_ops, 2))
        lows = rng.integers(0, horizon - span + 1, size=len(points))
        self.queries = [
            (points[i], tuple(range(int(lows[i]), int(lows[i]) + span)), *self.MODES[i % 3])
            for i in range(len(points))
        ]
        # One warm-up query per object, at the object's own middle fix: the
        # object is at distance 0 there, so the filter keeps it and the
        # engine adapts and compiles it during set-up, not in the timed phase.
        self.touch = []
        for obs in self.observations:
            t, state = obs[len(obs) // 2]
            lo = min(max(t - span // 2, 0), horizon - span)
            self.touch.append((self.net.coords[state], tuple(range(lo, lo + span)), "exists", 0.1))

    @staticmethod
    def _request(spec) -> QueryRequest:
        point, times, mode, tau = spec
        return QueryRequest(Query.from_point(point), times, mode, tau)

    def setup(self) -> None:
        self.db = _new_database(self.net)
        for i, obs in enumerate(self.observations):
            self.db.add_object(f"o{i}", obs)
        self.engine = QueryEngine(self.db, n_samples=self.worlds, seed=self.seed * 10 + 1)
        self.requests = [self._request(spec) for spec in self.queries]
        for spec in self.touch:
            self.engine.evaluate(self._request(spec))
        for request in self.requests[: self.n_random_warm]:
            self.engine.evaluate(request)
        self.requests = self.requests[self.n_random_warm :]
        self.kept: dict[int, dict] = {}

    def run_op(self, index: int):
        result = self.engine.evaluate(self.requests[index])
        notified = perf_counter()
        if index % self.CHECK_EVERY == 0:
            self.kept[index] = _probabilities(result)
        report = result.report
        c = self.counters
        c["cache_hits"] += report.cache_hits
        c["cache_partial_hits"] += report.cache_partial_hits
        c["cache_misses"] += report.cache_misses
        c["filter_s"] += report.stage_seconds["filter"]
        c["estimate_s"] += report.stage_seconds["estimate"]
        return digest_of(_result_items(result)), notified

    def verify(self, ops) -> tuple[int, int]:
        """Every 20th timed answer against an independent engine with 4x worlds."""
        checker = QueryEngine(
            self.db, n_samples=self.worlds * CHECK_WORLDS_FACTOR, seed=self.seed * 10 + 2
        )
        radius = self._check_radius()
        sample = sorted(self.kept)[: self.MAX_CHECKS]
        failed = 0
        for index in sample:
            request = self.requests[index]
            want = _probabilities(checker.evaluate(request))
            failed += not _agree(self.kept[index], want, radius, pcnn=request.mode == "pcnn")
        return len(sample), failed


# --------------------------------------------------------------------------
class _MonitorWorkload(Workload):
    """Shared by the standing-query workloads: callbacks, tick accounting, checks."""

    monitor = None

    def _subscribe_all(self, monitor, specs, window=None) -> None:
        self.sub_requests = {}
        self.latest = {}
        self.last_callback = 0.0
        for name, (point, times, mode, tau) in specs.items():
            request = QueryRequest(Query.from_point(point), times, mode, tau)
            self.sub_requests[name] = request
            monitor.subscribe(request, self._on_notification, name=name, window=window)

    def _on_notification(self, notification) -> None:
        self.latest[notification.subscription] = notification
        self.last_callback = perf_counter()

    def _tick(self, monitor, events, now=None):
        report = monitor.tick(events, now=now)
        notified = self.last_callback
        c = self.counters
        c["events"] += len(events)
        c["notifications"] += len(report.notifications)
        c["changed"] += len(report.changed)
        for key, value in report.reuse.items():
            c[key] += value
        busy = []
        for key, value in report.stage_seconds.items():
            c["stage_" + key] += value
            if key.startswith("shard"):
                busy.append(value)
        if busy:
            c["busy_max_s"] += max(busy)
            c["busy_sum_s"] += sum(busy)
            c["n_shards"] = len(busy)
        payload = [
            (n.subscription, n.changed, _result_items(n.result))
            for n in report.notifications
        ]
        return digest_of(payload), notified

    def verify(self, ops) -> tuple[int, int]:
        """A fresh standalone engine re-evaluates every subscription's final
        request; the last delivered probabilities must agree ("cached wrong")."""
        checker = QueryEngine(
            self.db, n_samples=self.worlds * CHECK_WORLDS_FACTOR, seed=self.seed * 10 + 2
        )
        radius = self._check_radius()
        failed = 0
        for name, notification in self.latest.items():
            request = replace(self.sub_requests[name], times=notification.times)
            failed += not _agree(
                _probabilities(notification.result),
                _probabilities(checker.evaluate(request)),
                radius,
                pcnn=request.mode == "pcnn",
            )
        return len(self.latest), failed


class MonitorSteady(_MonitorWorkload):
    """Read-mostly monitoring: fixed windows, one refinement fix per tick."""

    name = "monitor_steady"
    open_rate_hz = 12.0
    digest_ops = 60
    SPAN, OBS_EVERY = 24, 4
    LATE, EARLY = tuple(range(14, 21)), tuple(range(6, 13))

    def generate(self) -> None:
        s = self.smoke
        n_objects, n_subs, n_states = (24, 6, 150) if s else (120, 24, 400)
        self.worlds = 64 if s else 256
        self.n_warm = 3 if s else 12
        rng = self._rng(2)
        self.net = Network(rng, n_states, k_nn=6)
        self.walks = self.net.walks(rng, n_objects, self.SPAN)
        self.observations = [thin(0, walk, self.OBS_EVERY) for walk in self.walks]
        points = spread_points(rng, n_subs)
        self.subscriptions = {
            f"s{i}": (
                points[i],
                self.LATE if i % 2 == 0 else self.EARLY,
                "forall" if i % 4 < 2 else "exists",
                0.05,
            )
            for i in range(n_subs)
        }
        # Interior fixes tighten a diamond without moving a lifespan.  Rounds
        # alternate between the late and the early window, so each tick
        # dirties one object inside one group's windows only.
        interior = [t for t in range(1, self.SPAN) if t % self.OBS_EVERY]
        in_window = [18, 10, 17, 9, 19, 11, 15, 7, 14, 6]
        rounds = in_window + [t for t in interior if t not in in_window]
        self.feed = [
            (f"w{i}", t, int(self.walks[i][t])) for t in rounds for i in range(n_objects)
        ]
        self.n_ops = len(self.feed) - self.n_warm

    def setup(self) -> None:
        self.db = _new_database(self.net)
        for i, obs in enumerate(self.observations):
            self.db.add_object(f"w{i}", obs)
        engine = QueryEngine(self.db, n_samples=self.worlds, seed=self.seed * 10 + 1)
        self.monitor = ContinuousMonitor(engine)
        self._subscribe_all(self.monitor, self.subscriptions)
        self.events = [[AddObservation(*fix)] for fix in self.feed]
        self.monitor.tick()
        for batch in self.events[: self.n_warm]:
            self.monitor.tick(batch)
        self.events = self.events[self.n_warm :]

    def run_op(self, index: int):
        return self._tick(self.monitor, self.events[index])


class FleetLive(_MonitorWorkload):
    """The write path: a moving clock, objects entering, reporting and leaving."""

    name = "fleet_live"
    open_rate_hz = 6.0
    digest_ops = 30
    #: ``None`` runs the single-process monitor, a number the serve tier.
    n_shards: int | None = None

    def generate(self) -> None:
        s = self.smoke
        # ``rate`` objects start every tic, so every tick applies the same
        # mix: per starting object one AddObject (its 2nd fix), one
        # AddObservation per later fix (life/fix - 1 of them) and one
        # RemoveObject.
        self.rate = 1 if s else 3
        self.life, self.fix, self.linger = (12, 4, 3) if s else (12, 3, 4)
        self.window = SlidingWindow(width=3, lag=5) if s else SlidingWindow(width=3, lag=4)
        n_subs, n_states = (4, 150) if s else (12, 1000)
        self.worlds = 64 if s else 256
        self.setup_tics = 4 if s else 10
        self.n_ops = 60 if s else 1200
        rng = self._rng(3)
        self.net = Network(rng, n_states, k_nn=6)
        stay = self.life + self.linger
        horizon = self.setup_tics + self.n_ops
        starts = [t for t in range(-stay + 1, horizon) for _ in range(self.rate)]
        walks = self.net.walks(rng, len(starts), self.life)
        self.script = [[] for _ in range(horizon)]
        for i, start in enumerate(starts):
            name = f"v{i}"
            fixes = [(start + k, int(walks[i][k])) for k in range(0, self.life + 1, self.fix)]
            # An object enters the database with its 2nd fix; one already on
            # the road at tic 0 enters there with every fix it has sent so far.
            enter = max(fixes[1][0], 0)
            known = [f for f in fixes if f[0] <= enter]
            events = [(enter, ("add", name, known))]
            events += [(f[0], ("obs", name, *f)) for f in fixes if f[0] > enter]
            events.append((start + stay, ("remove", name)))
            for t, event in events:
                if t < horizon:
                    self.script[t].append(event)
        points = spread_points(rng, n_subs)
        modes = (("forall", 0.05), ("exists", 0.05), ("pcnn", 0.5))
        self.subscriptions = {
            f"s{i}": (points[i], (0,), *modes[i % 3]) for i in range(n_subs)
        }

    @staticmethod
    def _event(spec):
        kind, name, *rest = spec
        if kind == "add":
            return AddObject(name, rest[0])
        if kind == "obs":
            return AddObservation(name, *rest)
        return RemoveObject(name)

    def setup(self) -> None:
        self.db = _new_database(self.net)
        engine_seed = self.seed * 10 + 1
        if self.n_shards is None:
            self.monitor = ContinuousMonitor(
                QueryEngine(self.db, n_samples=self.worlds, seed=engine_seed)
            )
        else:
            self.monitor = ServeCoordinator(
                self.db,
                n_shards=self.n_shards,
                seed=engine_seed,
                mode="process",
                n_samples=self.worlds,
            )
        self._subscribe_all(self.monitor, self.subscriptions, window=self.window)
        self.batches = [[self._event(spec) for spec in batch] for batch in self.script]
        for t in range(self.setup_tics):
            self.monitor.tick(self.batches[t], now=t)

    def run_op(self, index: int):
        t = self.setup_tics + index
        return self._tick(self.monitor, self.batches[t], now=t)

    def close(self) -> None:
        if self.n_shards is not None and self.monitor is not None:
            self.monitor.close()
            self.monitor = None


class FleetLiveServe2(FleetLive):
    """The identical script through ``ServeCoordinator(n_shards=2, mode="process")``."""

    name = "fleet_live_serve2"
    n_shards = 2
    #: Ticks replayed through a single-process monitor for the digest check.
    REFERENCE_TICKS = 12

    def verify(self, ops) -> tuple[int, int]:
        """The parent's checks, plus: any shard count ≡ single process.

        A single-process monitor replays set-up and the first ticks of the
        same script; its notification digests must equal the serve tier's,
        tick for tick.  A mismatch fails every op of the workload.
        """
        checked, failed = super().verify(ops)
        reference = FleetLive(self.seed, self.smoke)
        reference.generate()
        reference.setup()
        n = min(self.REFERENCE_TICKS, len(ops))
        replayed = closed_loop(reference.run_op, 0, n, seconds=60.0)
        self.speedup_vs_single = sum(op.end - op.start for op in replayed) / sum(
            op.end - op.start for op in ops[:n]
        )
        if [op.digest for op in replayed] != [op.digest for op in ops[:n]]:
            print("serve/single notification digests differ", file=sys.stderr)
            return checked + len(ops), failed + len(ops)
        return checked + n, failed


WORKLOADS = {w.name: w for w in (AdhocQuery, MonitorSteady, FleetLive, FleetLiveServe2)}
