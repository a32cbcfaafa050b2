"""Segment-local write path vs the fresh-build oracle.

An ingested fix re-derives only the inter-observation segments it touches:
``adapt_model`` carries ``F(t)``/marginal records over from the replaced
object's model, ``compile_model`` their flattened layers,
``compute_diamonds_many`` the diamonds (MBR caches included) and
``USTTree.update_many`` the index rows.  Reuse sits in the database
layer, *below* the engine, so no engine can be the oracle here.  The oracle
is a database freshly built from the final observation lists (no donor
anywhere — ``tests.oracles.fresh_twin``), and for Algorithm 2 itself the
whole-lifespan forward/backward sweep segment-local adaptation replaced
(``tests.oracles.reference_adapt``): both must agree with the live,
mutated database down to the last array dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluator import QueryEngine
from repro.markov import adaptation, compiled
from repro.markov.adaptation import ObservationContradictionError, adapt_model
from repro.spatial.ust_tree import USTTree
from repro.stream.ingest import AddObject, AddObservation, ObservationStream
from repro.stream.monitor import _result_payload
from repro.trajectory import diamonds as diamonds_module
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import make_drift_chain, make_line_space
from tests.oracles import (
    fresh_twin,
    prune_reference,
    reference_adapt,
    same_array,
    same_compiled,
    same_distributions,
    same_model,
    same_pruning,
    same_transitions,
)
from tests.oracles.shapes import MutatingWorld

pytestmark = pytest.mark.stream



def _same_diamonds(live, fresh, space, context):
    assert len(live) == len(fresh), context
    for i, (a, b) in enumerate(zip(live, fresh)):
        assert (a.t_start, a.t_end, a.key) == (b.t_start, b.t_end, b.key), (*context, i)
        assert len(a.states_per_tic) == len(b.states_per_tic), (*context, i)
        for x, y in zip(a.states_per_tic, b.states_per_tic):
            same_array(x, y, (*context, i, "states"))
        assert a.spatio_temporal_mbr(space) == b.spatio_temporal_mbr(space), (*context, i)
        for x, y in zip(a.mbr_arrays(space), b.mbr_arrays(space)):
            same_array(x, y, (*context, i, "mbr"))


def _same_prune(maintained, oracle, q_coords, times, k, context):
    fresh = oracle.prune(q_coords, times, k=k)
    same_pruning(maintained.prune(q_coords, times, k=k), fresh, context)
    # The reference filter loop reads an R*-tree of the live database's
    # diamonds, not the table.
    same_pruning(prune_reference(maintained.db, q_coords, times, k), fresh, context)


# ----------------------------------------------------------------------
# the live database against a fresh build
# ----------------------------------------------------------------------
def check_against_fresh_build(world, context) -> None:
    fresh = fresh_twin(world.db)
    assert fresh.object_ids == world.db.object_ids, context
    for obj in world.db:
        ctx = (*context, obj.object_id)
        twin = fresh.get(obj.object_id)
        same_model(obj.adapted, twin.adapted, ctx)
        transitions, posteriors, forwards = reference_adapt(
            obj.chain, obj.observations.as_pairs(), obj.extend_to
        )
        same_transitions(obj.adapted.transitions, transitions, (*ctx, "sweep"))
        same_distributions(obj.adapted.posteriors, posteriors, (*ctx, "sweep"))
        same_distributions(obj.adapted.forwards, forwards, (*ctx, "sweep"))
        _same_diamonds(
            world.db.diamonds_of(obj.object_id),
            fresh.diamonds_of(obj.object_id),
            world.space,
            ctx,
        )
    world.sync_tree()
    oracle = USTTree(fresh)
    assert len(world.tree) == len(oracle), context
    for request in world.requests():
        times = np.asarray(request.times)
        q_coords = request.query.coords_at(times)
        for k in (1, 2):
            _same_prune(world.tree, oracle, q_coords, times, k, (*context, request.mode))
    live_engine = QueryEngine(world.db, n_samples=48, seed=5)
    fresh_engine = QueryEngine(fresh, n_samples=48, seed=5)
    for request in world.requests():
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
    world = MutatingWorld(seed)
    kinds = set()
    for step in range(40):
        event = world.random_event()
        if event is None:
            continue
        kinds.add(type(event).__name__)
        world.apply(event)
        check_against_fresh_build(world, (seed, step, type(event).__name__))
    assert kinds == {"AddObject", "AddObservation", "RemoveObject"}


@pytest.mark.parametrize("seed", [5, 29])
def test_several_mutations_before_first_adaptation(seed):
    """Objects that collect many fixes between two derivations chain their
    donors: whatever the last *derived* predecessor holds is still reused,
    and the result still equals a fresh build."""
    world = MutatingWorld(seed)
    applied = 0
    for step in range(60):
        event = world.random_event()
        if event is None:
            continue
        world.apply(event)
        applied += 1
        if applied % 7 == 0:
            check_against_fresh_build(world, (seed, step))
    check_against_fresh_build(world, (seed, "final"))


def test_history_exercises_every_mutation_shape():
    """The generator really produces what the suite claims to cover."""
    world = MutatingWorld(3)
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
    """Segments derived per layer: calls of the per-segment kernel, and
    the segments handed to the batched compile pass and diamond walk."""

    def __init__(self, monkeypatch) -> None:
        self.calls = {}
        for owner, name, size in (
            (adaptation, "_adapt_segment", None),
            (compiled, "_compile_stretches", len),
            (diamonds_module, "_walk", lambda chain, keys: len(keys)),
        ):
            self._wrap(monkeypatch, owner, name, size)

    def _wrap(self, monkeypatch, owner, name, size) -> None:
        original = getattr(owner, name)
        self.calls[name] = 0

        def counted(*args, **kwargs):
            self.calls[name] += 1 if size is None else size(*args, **kwargs)
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
    counts = _Counts(monkeypatch)
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 4, "_compile_stretches": 4, "_walk": 0,
    }

    db.add_observation("a", 15, 5)  # head append: one new segment
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 1, "_compile_stretches": 1, "_walk": 1,
    }

    db.add_observation("a", 7, 2)  # interior refinement: one segment becomes two
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretches": 2, "_walk": 2,
    }

    db.add_observation("a", -2, 0)  # a fix before the first one: one new segment
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 1, "_compile_stretches": 1, "_walk": 1,
    }
    # Several fixes before the next derivation still cost one segment each.
    db.add_observation("a", 18, 6)
    db.add_observation("a", 21, 7)
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretches": 2, "_walk": 2,
    }

    # A re-added id starts from nothing: no donor survives a removal.
    db.remove_object("a")
    tree.update_object("a")
    assert "a" not in tree and len(tree) == 1
    db.add_object("a", [(-2, 0), (0, 0), (3, 1)])
    _derive_everything(db, tree, "a")
    assert counts.take() == {
        "_adapt_segment": 2, "_compile_stretches": 2, "_walk": 2,
    }


def test_reused_records_are_shared_not_copied():
    db = TrajectoryDatabase(make_line_space(8), make_drift_chain(8))
    old = db.add_object("a", [(0, 0), (3, 1), (6, 2)], extend_to=8)
    old.compiled  # every stretch's tables, carried on its Segment record
    old_tables = [seg.compiled for seg in old.adapted.segments]
    old_diamonds = db.diamonds_of("a")
    rects = [d.spatio_temporal_mbr(db.space) for d in old_diamonds]
    new = db.add_observation("a", 7, 3)  # inside the cone: the cone is re-derived
    assert new.extend_to == 8
    new.compiled
    new_tables = [seg.compiled for seg in new.adapted.segments]
    assert [a is b for a, b in zip(new_tables, old_tables)] == [True, True, False]
    assert len(new_tables) == 4 and all(tables is not None for tables in new_tables)
    for t in range(0, 6):
        assert new.adapted.transitions[t] is old.adapted.transitions[t]
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
#: Fixes of ``a = [(0, 0), (4, 2), (8, 3)]`` the drift-only chain contradicts.
CONTRADICTING_FIXES = [
    (2, 3),  # unreachable from (0, 0): first half of the split fails
    (3, 0),  # reachable, but (4, 2) is unreachable from it: second half
    (10, 1),  # head append going backwards on a drift-only chain
]


class TestContradictingFix:
    @pytest.fixture
    def db(self):
        db = TrajectoryDatabase(make_line_space(6), make_drift_chain(6))
        db.add_object("a", [(0, 0), (4, 2), (8, 3)])
        db.get("a").compiled  # a fully derived donor
        db.diamonds_of("a")
        return db

    @pytest.mark.parametrize("fix", CONTRADICTING_FIXES)
    def test_ingest_refuses_it_untouched(self, db, fix):
        before, v = db.get("a"), db.version
        with pytest.raises(ObservationContradictionError, match=r"object 'a': observation"):
            db.add_observation("a", *fix)
        assert db.get("a") is before and db.version == v

    @pytest.mark.parametrize("fix", CONTRADICTING_FIXES)
    @pytest.mark.usefixtures("unchecked_reachability")
    def test_same_error_as_a_fresh_build(self, db, fix):
        pairs = sorted(db.get("a").observations.as_pairs() + [fix])
        with pytest.raises(ObservationContradictionError) as fresh:
            adapt_model(db.chain, pairs)
        db.add_observation("a", *fix)  # the ingest check is off: it lands
        for _ in range(2):  # ... and raises again on every access
            with pytest.raises(ObservationContradictionError) as live:
                db.get("a").adapted
            assert str(live.value) == str(fresh.value)
            assert not db.get("a").is_adapted()
        with pytest.raises(ValueError, match="contradict the chain"):
            db.diamonds_of("a")

    @pytest.mark.usefixtures("unchecked_reachability")
    def test_forced_adaptation_names_the_event(self, db, monkeypatch):
        ingest = db.add_observation

        def eager(object_id, time, state, **kwargs):
            return ingest(object_id, time, state, **kwargs).adapted

        monkeypatch.setattr(db, "add_observation", eager)
        with pytest.raises(
            ObservationContradictionError,
            match=r"event 1 \(object 'a'\): observation \(t=2, state=3\) has zero "
            "probability under the a-priori chain given earlier observations",
        ):
            ObservationStream(db).apply(
                [AddObject("b", [(0, 1), (4, 2)]), AddObservation("a", 2, 3)]
            )

    @pytest.mark.usefixtures("unchecked_reachability")
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
        same_model(db.get("a").adapted, fresh, ("after failure",))


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
        assert (taken["_adapt_segment"], taken["_walk"]) == (2, 2)

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
        same_compiled(copy.compiled, model.compiled, ("hand-assembled",))
