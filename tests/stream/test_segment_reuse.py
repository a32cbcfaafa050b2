"""Segment-local write path vs the fresh-build oracle.

An ingested fix re-derives only the inter-observation segments it touches:
``adapt_model`` carries ``F(t)``/marginal records over from the replaced
object's model, ``compile_model`` their flattened layers,
``compute_diamonds`` the diamonds (MBR caches included) and
``USTTree.update_object`` the index entries.  Reuse sits in the database
layer, *below* the engine, so ``QueryEngine(incremental=False)`` shares it
and cannot be the oracle here.  The oracle is a database freshly built from
the final observation lists (no donor anywhere), and for Algorithm 2 itself
the whole-lifespan forward/backward sweep this PR replaced, kept below as
``_reference_adapt``: both must agree with the live, mutated database down
to the last array dtype.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov import adaptation, compiled
from repro.markov.adaptation import ObservationContradictionError, adapt_model
from repro.markov.chain import InhomogeneousMarkovChain, MarkovChain
from repro.markov.distributions import SparseDistribution
from repro.spatial.rstar import RStarTree
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.stream.ingest import (
    AddObject,
    AddObservation,
    ObservationStream,
    RemoveObject,
)
from repro.stream.monitor import ContinuousMonitor, _result_payload
from repro.trajectory import diamonds as diamonds_module
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain, make_line_space

pytestmark = pytest.mark.stream

N_STATES = 14
T_MIN, T_MAX = -4, 18


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def _reference_adapt(chain, observations, extend_to=None):
    """Algorithm 2 as one forward and one backward sweep over the whole
    lifespan (the pre-segment implementation), returning the three dicts."""
    obs_by_time = dict(observations)
    times = sorted(obs_by_time)
    t_first, t_last = times[0], times[-1]
    forwards, reverse = {}, {}
    current = SparseDistribution.point(obs_by_time[t_first])
    forwards[t_first] = current
    for t in range(t_first + 1, t_last + 1):
        rows = chain.matrix_at(t - 1)[current.states]
        joint = rows.multiply(current.probs[:, None]).tocsc()
        col_sums = np.asarray(joint.sum(axis=0)).ravel()
        active = np.flatnonzero(col_sums > 0)
        rows_of_t = {}
        for i in active:
            lo, hi = joint.indptr[i], joint.indptr[i + 1]
            prev_states = current.states[joint.indices[lo:hi]]
            probs = joint.data[lo:hi] / col_sums[i]
            order = np.argsort(prev_states, kind="stable")
            rows_of_t[int(i)] = (prev_states[order], probs[order])
        reverse[t] = rows_of_t
        current = SparseDistribution(active, col_sums[active] / col_sums[active].sum())
        if t in obs_by_time:
            assert current.probability_of(obs_by_time[t]) > 0.0
            current = SparseDistribution.point(obs_by_time[t])
        forwards[t] = current
    posteriors = {t_last: SparseDistribution.point(obs_by_time[t_last])}
    transitions = {}
    for t in range(t_last - 1, t_first - 1, -1):
        nxt = posteriors[t + 1]
        prev_parts, next_parts, mass_parts = [], [], []
        for k, p_k in zip(nxt.states, nxt.probs):
            prev_states, r_probs = reverse[t + 1][int(k)]
            prev_parts.append(prev_states)
            next_parts.append(np.full(prev_states.shape, k, dtype=np.intp))
            mass_parts.append(r_probs * p_k)
        prev_all = np.concatenate(prev_parts)
        order = np.argsort(prev_all, kind="stable")
        prev_all = prev_all[order]
        next_all = np.concatenate(next_parts)[order]
        mass_all = np.concatenate(mass_parts)[order]
        uniq, starts = np.unique(prev_all, return_index=True)
        bounds = np.append(starts, prev_all.size)
        rows_fwd, totals = {}, np.empty(uniq.shape)
        for idx, state in enumerate(uniq):
            mass = mass_all[bounds[idx] : bounds[idx + 1]]
            totals[idx] = mass.sum()
            rows_fwd[int(state)] = (
                next_all[bounds[idx] : bounds[idx + 1]].copy(),
                mass / totals[idx],
            )
        transitions[t] = rows_fwd
        posteriors[t] = SparseDistribution(uniq, totals / totals.sum())
    if extend_to is not None and extend_to > t_last:
        current = posteriors[t_last]
        for t in range(t_last, extend_to):
            matrix = chain.matrix_at(t)
            transitions[t] = {
                int(s): (
                    matrix.getrow(int(s)).indices.astype(np.intp),
                    matrix.getrow(int(s)).data.copy(),
                )
                for s in current.states
            }
            current = current.propagate(matrix)
            posteriors[t + 1] = forwards[t + 1] = current
    return transitions, posteriors, forwards


def _fresh_twin(db: TrajectoryDatabase) -> TrajectoryDatabase:
    """The same objects, built in one go from their final observation lists."""
    twin = TrajectoryDatabase(db.space, db.chain)
    for obj in db:
        twin.add_object(
            obj.object_id,
            obj.observations.as_pairs(),
            chain=obj.chain,
            extend_to=obj.extend_to,
        )
    return twin


# ----------------------------------------------------------------------
# byte-level comparison helpers
# ----------------------------------------------------------------------
def _same_array(a, b, context):
    if a is None or b is None:
        assert a is b, context
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, (context, a.dtype, b.dtype)
    assert a.tobytes() == b.tobytes(), context


def _same_distributions(a: dict, b: dict, context):
    assert sorted(a) == sorted(b), context
    for t in a:
        _same_array(a[t].states, b[t].states, (*context, t, "states"))
        _same_array(a[t].probs, b[t].probs, (*context, t, "probs"))


def _same_transitions(a: dict, b: dict, context):
    assert sorted(a) == sorted(b), context
    for t in a:
        assert list(a[t]) == list(b[t]), (*context, t)
        for state in a[t]:
            for x, y in zip(a[t][state], b[t][state]):
                _same_array(x, y, (*context, t, state))


LAYER_ARRAYS = (
    "support", "indptr", "local_next", "aug", "cdf_dense", "next_flat",
    "cdf_flat", "entry_rows",
)


def _same_compiled(a, b, context):
    assert (a.t_first, a.t_last) == (b.t_first, b.t_last), context
    assert a.max_state == b.max_state, context
    for t in range(a.t_first, a.t_last + 1):
        for x, y in zip(a.initial_table(t), b.initial_table(t)):
            _same_array(x, y, (*context, t, "initial"))
    for t in range(a.t_first, a.t_last):
        for name in LAYER_ARRAYS:
            _same_array(
                getattr(a.layer(t), name), getattr(b.layer(t), name), (*context, t, name)
            )


def _same_model(live, fresh, context):
    assert (live.t_first, live.t_last) == (fresh.t_first, fresh.t_last), context
    assert live.observation_times == fresh.observation_times, context
    _same_transitions(live.transitions, fresh.transitions, (*context, "F"))
    _same_distributions(live.posteriors, fresh.posteriors, (*context, "posterior"))
    _same_distributions(live.forwards, fresh.forwards, (*context, "forward"))
    _same_compiled(live.compiled, fresh.compiled, (*context, "compiled"))


def _same_diamonds(live, fresh, space, context):
    assert len(live) == len(fresh), context
    for i, (a, b) in enumerate(zip(live, fresh)):
        assert (a.t_start, a.t_end, a.key) == (b.t_start, b.t_end, b.key), (*context, i)
        assert len(a.states_per_tic) == len(b.states_per_tic), (*context, i)
        for x, y in zip(a.states_per_tic, b.states_per_tic):
            _same_array(x, y, (*context, i, "states"))
        assert a.spatio_temporal_mbr(space) == b.spatio_temporal_mbr(space), (*context, i)
        for x, y in zip(a.mbr_arrays(space), b.mbr_arrays(space)):
            _same_array(x, y, (*context, i, "mbr"))


def _entry_keys(tree):
    return sorted(
        (e.data.object_id, e.data.segment, e.data.t_start, e.data.t_end, e.rect)
        for e in tree.tree.entries()
    )


def _same_prune(maintained, oracle, q_coords, times, k, context):
    a = maintained.prune(q_coords, times, k=k)
    b = oracle.prune(q_coords, times, k=k)
    assert a.candidates == b.candidates, context
    assert a.influencers == b.influencers, context
    assert a.examined_entries == b.examined_entries, context
    _same_array(a.prune_distances, b.prune_distances, context)
    assert sorted(a.dmin_bounds) == sorted(b.dmin_bounds), context
    for oid in a.dmin_bounds:
        _same_array(a.dmin_bounds[oid], b.dmin_bounds[oid], (*context, oid))
        _same_array(a.dmax_bounds[oid], b.dmax_bounds[oid], (*context, oid))
    # The reference filter loop reads the R*-tree itself, not the columns.
    c = maintained.prune(q_coords, times, k=k, vectorized=False)
    assert (c.candidates, c.influencers) == (b.candidates, b.influencers), context


# ----------------------------------------------------------------------
# the random world and its histories
# ----------------------------------------------------------------------
def _random_matrix(rng, density=0.3):
    mat = rng.uniform(size=(N_STATES, N_STATES))
    mask = rng.uniform(size=(N_STATES, N_STATES)) < density
    np.fill_diagonal(mask, True)
    mat = mat * mask
    return sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True))


class World:
    """A database under a seeded stream of mutations.

    Every object follows a hidden walk of its own chain over
    ``[T_MIN, T_MAX]``, so any subset of the walk's tics is a feasible
    observation history: fixes can be appended at the head, slipped in
    between two fixes or placed before the first one.
    """

    def __init__(self, seed: int) -> None:
        self.rng = rng = np.random.default_rng(seed)
        self.space = StateSpace(rng.uniform(0, 10, size=(N_STATES, 2)))
        default = MarkovChain(_random_matrix(rng))
        self.chains = {
            "default": None,
            "own": MarkovChain(_random_matrix(rng)),
            "inhomogeneous": InhomogeneousMarkovChain(
                {t: _random_matrix(rng) for t in range(T_MIN, T_MAX, 2)},
                default=_random_matrix(rng),
            ),
        }
        self.db = TrajectoryDatabase(self.space, default)
        self.stream = ObservationStream(self.db)
        self.walks: dict[str, dict[int, int]] = {}
        self.tree = USTTree(self.db)
        self._tree_seen = self.db.version
        self.generation = 0

    def _walk(self, chain) -> dict[int, int]:
        chain = chain or self.db.chain
        state = int(self.rng.integers(N_STATES))
        walk = {T_MIN: state}
        for t in range(T_MIN, T_MAX):
            nxt, probs = chain.successors(state, t)
            state = int(self.rng.choice(nxt, p=probs))
            walk[t + 1] = state
        return walk

    def add_event(self, object_id: str) -> AddObject:
        kind = ("default", "own", "inhomogeneous")[int(self.rng.integers(3))]
        chain = self.chains[kind]
        walk = self.walks[object_id] = self._walk(chain)
        first = int(self.rng.integers(0, 6))
        times = sorted({first, *(int(t) for t in self.rng.integers(first, 10, size=3))})
        extend_to = None
        if self.rng.uniform() < 0.5:
            extend_to = times[-1] + int(self.rng.integers(1, 5))
        return AddObject(
            object_id, [(t, walk[t]) for t in times], chain=chain, extend_to=extend_to
        )

    def observation_event(self, object_id: str) -> AddObservation | None:
        """A head append, an interior refinement or a fix before the first one."""
        obj = self.db.get(object_id)
        seen = set(obj.observations.times)
        first, last = obj.observations.first.time, obj.observations.last.time
        choices = {
            "head": [t for t in range(last + 1, min(last + 5, T_MAX) + 1)],
            "interior": [t for t in range(first + 1, last) if t not in seen],
            "before": [t for t in range(max(first - 3, T_MIN), first)],
        }
        kinds = [k for k, ts in choices.items() if ts]
        if not kinds:
            return None
        ts = choices[kinds[int(self.rng.integers(len(kinds)))]]
        t = int(ts[int(self.rng.integers(len(ts)))])
        return AddObservation(object_id, t, self.walks[object_id][t])

    def random_event(self):
        ids = self.db.object_ids
        roll = self.rng.uniform()
        if len(ids) < 3 or roll < 0.12:
            # New ids and re-used ids of removed objects alike.
            gone = sorted(set(self.walks) - set(ids))
            if gone and self.rng.uniform() < 0.6:
                return self.add_event(gone[0])
            self.generation += 1
            return self.add_event(f"o{self.generation}")
        object_id = ids[int(self.rng.integers(len(ids)))]
        if roll < 0.22:
            return RemoveObject(object_id)
        return self.observation_event(object_id)

    def apply(self, event) -> None:
        self.stream.apply([event])

    def sync_tree(self) -> None:
        """What ``QueryEngine._sync_mutations`` does to its index."""
        for oid in sorted(self.db.changed_since(self._tree_seen)):
            self.tree.update_object(oid)
        self._tree_seen = self.db.version

    def requests(self):
        points = ([5.0, 5.0], [2.0, 7.5])
        return [
            QueryRequest(Query.from_point(points[0]), (3, 4, 5, 6), "forall", 0.05),
            QueryRequest(Query.from_point(points[1]), (6, 7, 8), "exists", 0.1),
            QueryRequest(Query.from_point(points[0]), (2, 4, 6, 8), "pcnn", 0.2),
            QueryRequest(Query.from_point(points[1]), (8, 9, 10, 11), "raw"),
        ]

    def check_against_fresh_build(self, context) -> None:
        fresh = _fresh_twin(self.db)
        assert fresh.object_ids == self.db.object_ids, context
        for obj in self.db:
            ctx = (*context, obj.object_id)
            twin = fresh.get(obj.object_id)
            _same_model(obj.adapted, twin.adapted, ctx)
            transitions, posteriors, forwards = _reference_adapt(
                obj.chain, obj.observations.as_pairs(), obj.extend_to
            )
            _same_transitions(obj.adapted.transitions, transitions, (*ctx, "sweep"))
            _same_distributions(obj.adapted.posteriors, posteriors, (*ctx, "sweep"))
            _same_distributions(obj.adapted.forwards, forwards, (*ctx, "sweep"))
            _same_diamonds(
                self.db.diamonds_of(obj.object_id),
                fresh.diamonds_of(obj.object_id),
                self.space,
                ctx,
            )
        self.sync_tree()
        oracle = USTTree(fresh)
        assert len(self.tree) == len(oracle), context
        assert _entry_keys(self.tree) == _entry_keys(oracle), context
        self.tree.tree.check_invariants()
        for request in self.requests():
            times = np.asarray(request.times)
            q_coords = request.query.coords_at(times)
            for k in (1, 2):
                _same_prune(self.tree, oracle, q_coords, times, k, (*context, request.mode))
        live_engine = QueryEngine(self.db, n_samples=48, seed=5)
        fresh_engine = QueryEngine(fresh, n_samples=48, seed=5)
        for request in self.requests():
            assert _result_payload(live_engine.evaluate(request)) == _result_payload(
                fresh_engine.evaluate(request)
            ), (*context, request.mode)


# ----------------------------------------------------------------------
# randomized histories
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17, 41])
def test_every_event_matches_a_fresh_build(seed):
    """Head appends, interior refinements, fixes before the first one,
    superseded cones, per-object and inhomogeneous chains, removals and
    re-added ids: after every single event the live database equals one
    built from scratch."""
    world = World(seed)
    kinds = set()
    for step in range(40):
        event = world.random_event()
        if event is None:
            continue
        kinds.add(type(event).__name__)
        world.apply(event)
        world.check_against_fresh_build((seed, step, type(event).__name__))
    assert kinds == {"AddObject", "AddObservation", "RemoveObject"}


@pytest.mark.parametrize("seed", [5, 29])
def test_several_mutations_before_first_adaptation(seed):
    """Objects that collect many fixes between two derivations chain their
    donors: whatever the last *derived* predecessor holds is still reused,
    and the result still equals a fresh build."""
    world = World(seed)
    applied = 0
    for step in range(60):
        event = world.random_event()
        if event is None:
            continue
        world.apply(event)
        applied += 1
        if applied % 7 == 0:
            world.check_against_fresh_build((seed, step))
    world.check_against_fresh_build((seed, "final"))


def test_history_exercises_every_mutation_shape():
    """The generator really produces what the suite claims to cover."""
    world = World(3)
    shapes, chains, cones = set(), set(), 0
    for _ in range(40):
        event = world.random_event()
        if event is None:
            continue
        if isinstance(event, AddObservation):
            obj = world.db.get(event.object_id)
            first, last = obj.observations.first.time, obj.observations.last.time
            shapes.add(
                "before" if event.time < first else "head" if event.time > last else "interior"
            )
            if obj.extend_to is not None and event.time > last:
                cones += 1
        elif isinstance(event, AddObject):
            chains.add(type(event.chain).__name__)
        world.apply(event)
    assert shapes == {"before", "head", "interior"}
    assert chains == {"NoneType", "MarkovChain", "InhomogeneousMarkovChain"}
    assert cones >= 2


# ----------------------------------------------------------------------
# what an event costs
# ----------------------------------------------------------------------
class _Counts:
    def __init__(self, monkeypatch) -> None:
        self.calls = {}
        for owner, name in (
            (adaptation, "_adapt_segment"),
            (compiled, "_compile_stretch"),
            (diamonds_module, "_segment_diamond"),
            (RStarTree, "insert"),
            (RStarTree, "delete"),
        ):
            self._wrap(monkeypatch, owner, name)

    def _wrap(self, monkeypatch, owner, name) -> None:
        original = getattr(owner, name)
        self.calls[name] = 0

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def take(self) -> dict:
        taken, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return taken


def _derive_everything(db, tree, object_id):
    obj = db.get(object_id)
    assert obj.adapted.compiled is obj.compiled
    tree.update_object(object_id)
    return obj


def test_an_event_costs_the_segments_it_touches(monkeypatch):
    db = TrajectoryDatabase(make_line_space(8), make_drift_chain(8))
    db.add_object("a", [(0, 0), (3, 1), (6, 2), (9, 3), (12, 4)])
    db.add_object("b", [(0, 1), (4, 2)])
    tree = USTTree(db)
    tree.tree  # materialise the reference R*-tree: from here on it is maintained
    counts = _Counts(monkeypatch)
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 4, "_compile_stretch": 4, "_segment_diamond": 0,
        "insert": 0, "delete": 0,
    }

    db.add_observation("a", 15, 5)  # head append: one new segment
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 1, "_compile_stretch": 1, "_segment_diamond": 1,
        "insert": 1, "delete": 0,
    }

    db.add_observation("a", 7, 2)  # interior refinement: one segment becomes two
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretch": 2, "_segment_diamond": 2,
        "insert": 2, "delete": 1,
    }

    db.add_observation("a", -2, 0)  # a fix before the first one: one new segment
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 1, "_compile_stretch": 1, "_segment_diamond": 1,
        "insert": 1, "delete": 0,
    }
    # ... and every kept entry was renumbered where it sits in the tree.
    assert _entry_keys(tree) == _entry_keys(USTTree(_fresh_twin(db)))
    counts.take()  # the oracle's own build

    # Several fixes before the next derivation still cost one segment each.
    db.add_observation("a", 18, 6)
    db.add_observation("a", 21, 7)
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretch": 2, "_segment_diamond": 2,
        "insert": 2, "delete": 0,
    }

    # A re-added id starts from nothing: no donor survives a removal.
    db.remove_object("a")
    tree.update_object("a")
    assert counts.take()["delete"] == 9
    db.add_object("a", [(-2, 0), (0, 0), (3, 1)])
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretch": 2, "_segment_diamond": 2,
        "insert": 2, "delete": 0,
    }


def test_production_filter_never_touches_an_rstar_tree(monkeypatch):
    """The R*-tree is the reference index: an engine that only ever runs
    the production filter — standalone queries, batches, monitor ticks over
    a mutating database — neither builds nor updates one."""
    touched = []
    for name in ("__init__", "bulk_load", "insert", "delete", "search"):
        monkeypatch.setattr(
            RStarTree, name, lambda *a, _name=name, **kw: touched.append(_name)
        )
    world = World(11)
    engine = QueryEngine(world.db, n_samples=32, seed=2)
    monitor = ContinuousMonitor(engine)
    for i in range(30):
        event = world.random_event()
        if event is None:
            continue
        if i == 8:  # ... with some objects around
            for j, request in enumerate(world.requests()):
                monitor.subscribe(request, name=f"s{j}")
        monitor.tick([event])
        engine.evaluate(world.requests()[0])
        engine.evaluate_many(world.requests()[:2])
    assert engine.index_updates > 0 and len(engine.ust_tree) > 0
    assert touched == []


def test_reused_records_are_shared_not_copied():
    db = TrajectoryDatabase(make_line_space(8), make_drift_chain(8))
    old = db.add_object("a", [(0, 0), (3, 1), (6, 2)], extend_to=8)
    old_layers = [old.compiled.layer(t) for t in range(0, 6)]
    old_diamonds = db.diamonds_of("a")
    rects = [d.spatio_temporal_mbr(db.space) for d in old_diamonds]
    new = db.add_observation("a", 7, 3)  # inside the cone: the cone is re-derived
    assert new.extend_to == 8
    assert [new.compiled.layer(t) for t in range(0, 6)] == old_layers
    for t in range(0, 6):
        assert new.adapted.transitions[t] is old.adapted.transitions[t]
    assert new.compiled.layer(6) is not old.compiled.layer(6)
    kept = db.diamonds_of("a")
    assert [a is b for a, b in zip(kept, old_diamonds)] == [True, True, False]
    assert len(kept) == 4 and kept[2].key == (6, 2, 7, 3) and kept[3].key == (7, 3, 8, None)
    assert [d.spatio_temporal_mbr(db.space) for d in kept[:2]] == rects[:2]
    # A fix past the cone supersedes it altogether.
    newest = db.add_observation("a", 10, 4)
    assert newest.extend_to is None and newest.t_last == 10
    assert [d.key for d in db.diamonds_of("a")][-1] == (7, 3, 10, 4)
    # Donors are released once consulted.
    assert new._donor is None and new._diamond_donor == []


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
class TestContradictingFix:
    @pytest.fixture
    def db(self):
        db = TrajectoryDatabase(make_line_space(6), make_drift_chain(6))
        db.add_object("a", [(0, 0), (4, 2), (8, 3)])
        db.get("a").compiled  # a fully derived donor
        db.diamonds_of("a")
        return db

    @pytest.mark.parametrize(
        "fix",
        [
            (2, 3),  # unreachable from (0, 0): first half of the split fails
            (3, 0),  # reachable, but (4, 2) is unreachable from it: second half
            (10, 1),  # head append going backwards on a drift-only chain
        ],
    )
    def test_same_error_as_a_fresh_build(self, db, fix):
        pairs = sorted(db.get("a").observations.as_pairs() + [fix])
        with pytest.raises(ObservationContradictionError) as fresh:
            adapt_model(db.chain, pairs)
        db.add_observation("a", *fix)  # lazy: ingestion itself succeeds
        for _ in range(2):  # ... and raises again on every access
            with pytest.raises(ObservationContradictionError) as live:
                db.get("a").adapted
            assert str(live.value) == str(fresh.value)
            assert not db.get("a").is_adapted()
        with pytest.raises(ValueError, match="contradict the chain"):
            db.diamonds_of("a")

    def test_forced_adaptation_names_the_event(self, db, monkeypatch):
        ingest = db.add_observation

        def eager(object_id, time, state):
            return ingest(object_id, time, state).adapted

        monkeypatch.setattr(db, "add_observation", eager)
        with pytest.raises(
            ObservationContradictionError,
            match=r"event 1 \(object 'a'\): observation \(t=2, state=3\) has zero "
            "probability under the a-priori chain given earlier observations",
        ):
            ObservationStream(db).apply(
                [AddObject("b", [(0, 1), (4, 2)]), AddObservation("a", 2, 3)]
            )

    def test_no_half_reused_model_is_left_behind(self, db):
        donor = db.get("a").adapted
        before = {seg.key: seg for seg in donor.segments}
        db.add_observation("a", 2, 3)
        with pytest.raises(ObservationContradictionError):
            db.get("a").adapted
        # The donor is untouched ...
        assert {seg.key: seg for seg in donor.segments} == before
        # ... and a valid history over the same id adapts byte-identically.
        db.remove_object("a")
        db.add_object("a", [(0, 0), (2, 1), (4, 2), (8, 3)])
        fresh = adapt_model(db.chain, [(0, 0), (2, 1), (4, 2), (8, 3)])
        _same_model(db.get("a").adapted, fresh, ("after failure",))


class TestDonorBoundaries:
    def test_donor_of_another_chain_is_ignored(self, monkeypatch):
        chain, twin_chain = make_drift_chain(6), make_drift_chain(6)
        pairs = [(0, 0), (4, 2), (8, 3)]
        donor = adapt_model(chain, pairs)
        counts = _Counts(monkeypatch)
        assert adapt_model(chain, pairs + [(10, 4)], donor=donor).segments[:2] == donor.segments
        assert counts.take()["_adapt_segment"] == 1
        # Equal matrices, different chain object: nothing is carried over.
        rebuilt = adapt_model(twin_chain, pairs + [(10, 4)], donor=donor)
        assert counts.take()["_adapt_segment"] == 3
        assert all(a is not b for a, b in zip(rebuilt.segments, donor.segments))

    def test_swapping_the_chain_drops_inherited_donors(self, monkeypatch):
        db = TrajectoryDatabase(make_line_space(6), make_drift_chain(6))
        db.add_object("a", [(0, 0), (4, 2)]).adapted
        db.diamonds_of("a")
        obj = db.add_observation("a", 8, 3)
        obj.chain = make_drift_chain(6)
        obj.invalidate_adaptation()
        counts = _Counts(monkeypatch)
        obj.adapted, obj.diamonds
        taken = counts.take()
        assert (taken["_adapt_segment"], taken["_segment_diamond"]) == (2, 2)

    def test_hand_assembled_model_offers_nothing(self, monkeypatch):
        import dataclasses

        chain = make_drift_chain(6)
        pairs = [(0, 0), (4, 2), (8, 3)]
        model = adapt_model(chain, pairs)
        copy = dataclasses.replace(model, transitions=dict(model.transitions))
        copy.chain = chain
        counts = _Counts(monkeypatch)
        adapt_model(chain, pairs, donor=copy)
        assert counts.take()["_adapt_segment"] == 2
        _same_compiled(copy.compiled, model.compiled, ("hand-assembled",))
