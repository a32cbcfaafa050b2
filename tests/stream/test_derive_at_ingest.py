"""Ingest validates by deriving: Algorithm 2 is the one contradiction check.

Every closed segment a batch forms is derived where its fixes arrive
(``TrajectoryDatabase.derive_or_refuse``, one ``derive_segments`` call on
the native tier where it loads, on numpy otherwise); the first segment the
sweep refuses rejects the batch, and the records of the others ride on the
objects to the stage, which assembles models from them.  So:

* a batch is accepted exactly when every closed segment it forms derives
  under the numpy ``adapt_many`` — also where a path of positive steps
  exists but its probability underflows (steps of 1e-200), which a walk
  over positive edges used to accept and every later tick then raised on;
* the records an object carries equal, array by array and table by table,
  what the numpy sweep and compile derive for the same segment;
* an object carries only the records its fixes bound, and a record serves
  only objects on the chain object it was derived under.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov import compiled, native
from repro.markov.adaptation import ObservationContradictionError, adapt_many
from repro.markov.chain import MarkovChain
from repro.statespace.base import StateSpace
from repro.stream import AddObject, AddObservation, ContinuousMonitor, RemoveObject
from repro.stream.monitor import _result_payload
from repro.trajectory.database import TrajectoryDatabase
from tests.oracles import fresh_twin, same_array, same_model, same_tables
from tests.oracles.shapes import MutatingWorld

pytestmark = pytest.mark.stream

BACKENDS = ["compiled", "native"] if native.available() else ["compiled"]

TINY = 1e-200


def _line_space(n):
    return StateSpace(np.stack([np.arange(float(n)), np.zeros(n)], axis=1))


def _underflow_chain():
    """0 -> 1 -> 2 each with probability 1e-200: a positive path whose
    two steps together underflow to 0, so (1, 0) -> (3, 2) contradicts."""
    mat = np.array(
        [[1.0, TINY, 0, 0], [0, 1.0, TINY, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]]
    )
    return MarkovChain(sparse.csr_matrix(mat))


def _monitor(db, backend):
    monitor = ContinuousMonitor(QueryEngine(db, n_samples=16, seed=1, backend=backend))
    monitor.subscribe(
        QueryRequest(Query.from_point([1.0, 0.0]), (0, 1, 2), "exists", 0.0), name="s"
    )
    return monitor


def _payloads(report):
    return [(n.subscription, n.reason, _result_payload(n.result)) for n in report.notifications]


def _records(obj):
    return [] if obj._donor is None else list(obj._donor.segments)


def _numpy_record(chain, key):
    """What the numpy sweep and compile derive for one closed segment."""
    (model,) = adapt_many([(chain, [key[:2], key[2:]], None, None)])
    (segment,) = model.segments
    return segment, compiled._compile_stretches([segment])[0]


def _same_record(got, chain, context):
    want, tables = _numpy_record(chain, got.key)
    assert got.key == want.key, context
    for name in ("layers", "posterior", "forward"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert len(mine) == len(theirs), (context, name)
        for k, (a, b) in enumerate(zip(mine, theirs)):
            for x, y in zip(a, b):
                same_array(x, y, (*context, name, k))
    if got.compiled is not None:  # laid out by the C sweep as it derived
        same_tables(got.compiled, tables, context)


# ----------------------------------------------------------------------
# the underflow wedge
# ----------------------------------------------------------------------
def _wedge_db():
    db = TrajectoryDatabase(_line_space(4), _underflow_chain())
    db.add_object("a", [(0, 0), (1, 0)])
    db.add_object("b", [(0, 3), (3, 3)])
    return db


UNREACHED = (
    r"observation \(t=3, state=2\) is unreachable from observation "
    r"\(t=1, state=0\) under the a-priori chain"
)


class TestUnderflowWedge:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stream_refuses_it_and_the_next_tick_runs(self, backend):
        db, twin = _wedge_db(), _wedge_db()
        monitor, clean = _monitor(db, backend), _monitor(twin, backend)
        assert _payloads(monitor.tick(now=2)) == _payloads(clean.tick(now=2))
        v = db.version
        batch = [AddObject("c", [(0, 1), (2, 1)]), AddObservation("a", 3, 2)]
        for _ in range(2):
            with pytest.raises(
                ObservationContradictionError, match=rf"event 1 \(object 'a'\): {UNREACHED}"
            ):
                monitor.tick(batch, now=3)
            assert db.version == v and db.object_ids == ["a", "b"]
            assert db.get("a").observations.as_pairs() == [(0, 0), (1, 0)]
        for events in ([], [AddObservation("a", 3, 0)]):
            assert _payloads(monitor.tick(events, now=3)) == _payloads(clean.tick(events, now=3))

    def test_direct_api_refuses_it(self):
        db = _wedge_db()
        v = db.version
        with pytest.raises(ObservationContradictionError, match=f"object 'a': {UNREACHED}"):
            db.add_observation("a", 3, 2)
        with pytest.raises(ObservationContradictionError, match=f"object 'c': {UNREACHED}"):
            db.add_object("c", [(1, 0), (3, 2)])
        assert db.version == v and db.object_ids == ["a", "b"]
        assert db.get("a").observations.as_pairs() == [(0, 0), (1, 0)]
        # One tiny step alone is a possible move.
        db.add_observation("a", 2, 1)
        assert db.get("a").adapted.posterior(2).states.tolist() == [1]


# ----------------------------------------------------------------------
# what an object carries
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17])
def test_carried_records_are_what_the_numpy_stage_derives(seed):
    """Array by array and table by table, on every chain kind the mutating
    world draws (default, per-object, time-inhomogeneous); every object
    carries exactly its closed segments' records, however many fixes it
    collected without being adapted."""
    world = MutatingWorld(seed)
    for step in range(40):
        event = world.random_event()
        if event is None:
            continue
        world.apply(event)
        for obj in world.db:
            keys = [(a.time, a.state, b.time, b.state) for a, b in obj.observations.segments()]
            records = sorted(_records(obj), key=lambda seg: seg.key[0])
            assert [seg.key for seg in records] == keys, (seed, step, obj.object_id)
            for seg in records:
                _same_record(seg, obj.chain, (seed, step, obj.object_id, seg.key))
    fresh = fresh_twin(world.db)
    for obj in world.db:
        same_model(obj.adapted, fresh.get(obj.object_id).adapted, (seed, obj.object_id))


def test_successors_carry_only_the_records_their_fixes_bound():
    chain = _underflow_chain()
    db = TrajectoryDatabase(_line_space(4), chain)
    db.add_object("a", [(0, 3), (4, 3)], extend_to=6)
    assert [seg.key for seg in _records(db.get("a"))] == [(0, 3, 4, 3)]
    db.get("a").adapted  # now the model holds the cone's record too
    db.add_observation("a", 2, 3)  # splits the closed segment; the cone stays
    assert [seg.key for seg in _records(db.get("a"))] == [
        (4, 3, 6, None), (0, 3, 2, 3), (2, 3, 4, 3)
    ]
    db.add_observation("a", 5, 3)  # inside the cone: the cone goes
    db.add_observation("a", 1, 3)
    assert sorted(seg.key for seg in _records(db.get("a"))) == [
        (0, 3, 1, 3), (1, 3, 2, 3), (2, 3, 4, 3), (4, 3, 5, 3)
    ]
    same_model(db.get("a").adapted, fresh_twin(db).get("a").adapted, ("bounded",))


def test_a_record_serves_only_its_own_chain():
    """Removed and re-added under another chain in one batch: the re-added
    object derives and carries its own records, never the old ones."""
    slow = np.array([[0.9, 0.1, 0, 0], [0, 0.9, 0.1, 0], [0, 0, 0.9, 0.1], [0, 0, 0, 1.0]])
    fast = np.array([[0.2, 0.8, 0, 0], [0, 0.2, 0.8, 0], [0, 0, 0.2, 0.8], [0, 0, 0, 1.0]])
    first, other = MarkovChain(sparse.csr_matrix(slow)), MarkovChain(sparse.csr_matrix(fast))
    fixes = [(0, 0), (3, 2), (5, 3)]
    db = TrajectoryDatabase(_line_space(4), first)
    monitor = _monitor(db, BACKENDS[-1])
    db.add_object("a", fixes)
    old = _records(db.get("a"))
    assert len(old) == 2
    monitor.tick([RemoveObject("a"), AddObject("a", fixes, chain=other)], now=2)
    obj = db.get("a")
    assert obj.chain is other and obj.is_adapted()  # the tick sampled it
    assert not any(seg is mine for seg in old for mine in obj.adapted.segments)
    alone = TrajectoryDatabase(_line_space(4), first)
    alone.add_object("a", fixes, chain=other)
    same_model(obj.adapted, alone.get("a").adapted, ("re-added",))


# ----------------------------------------------------------------------
# accepted exactly when Algorithm 2 derives
# ----------------------------------------------------------------------
N = 4
#: A stored entry's raw weight: a stored zero, a step of 1e-200 or less
#: (kept as it is), or an ordinary one (normalised with the row's others).
WEIGHTS = st.sampled_from([0.0, TINY, 1e-250, 1e-300, 0.5, 1.0])


@st.composite
def _chains(draw):
    """Rows over one to three stored successors, at least one ordinary."""
    data, indices, indptr = [], [], [0]
    for _ in range(N):
        cols = sorted(draw(st.sets(st.integers(0, N - 1), min_size=1, max_size=3)))
        ordinary = draw(st.sampled_from(cols))
        weights = [1.0 if col == ordinary else draw(WEIGHTS) for col in cols]
        total = sum(w for w in weights if w >= 0.5)
        data += [w / total if w >= 0.5 else w for w in weights]
        indices += cols
        indptr.append(len(data))
    return MarkovChain(sparse.csr_matrix((data, indices, indptr), shape=(N, N)))


@st.composite
def _batches(draw):
    """Two batches over objects ``o0``–``o2``: adds with one to three
    fixes, fixes at fresh times, removals and re-adds."""
    batches = []
    present: dict[str, set[int]] = {}
    for _ in range(2):
        events = []
        for _ in range(draw(st.integers(1, 4))):
            object_id = f"o{draw(st.integers(0, 2))}"
            if object_id not in present:
                times = sorted(draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)))
                fixes = [(t, draw(st.integers(0, N - 1))) for t in times]
                events.append(AddObject(object_id, fixes))
                present[object_id] = set(times)
            elif draw(st.integers(0, 4)) == 0:
                events.append(RemoveObject(object_id))
                del present[object_id]
            else:
                free = [t for t in range(7) if t not in present[object_id]]
                if not free:
                    continue
                t = draw(st.sampled_from(free))
                events.append(AddObservation(object_id, t, draw(st.integers(0, N - 1))))
                present[object_id].add(t)
        batches.append(events)
    return batches


def _derives(db, events) -> bool:
    """Whether every closed segment the batch forms derives under the numpy
    ``adapt_many`` — the batch simulated on the objects' fix lists."""
    fixes = {obj.object_id: obj.observations.as_pairs() for obj in db}
    segments = []
    for event in events:
        if isinstance(event, AddObject):
            fixes[event.object_id] = sorted(event.observations)
            segments += zip(fixes[event.object_id], fixes[event.object_id][1:])
        elif isinstance(event, AddObservation):
            pairs = sorted(fixes[event.object_id] + [(event.time, event.state)])
            i = pairs.index((event.time, event.state))
            segments += [(pairs[j], pairs[j + 1]) for j in (i - 1, i) if 0 <= j < len(pairs) - 1]
            fixes[event.object_id] = pairs
        else:
            del fixes[event.object_id]
    models = adapt_many([(db.chain, [a, b], None, None) for a, b in segments])
    return not any(isinstance(model, ValueError) for model in models)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(chain=_chains(), batches=_batches())
def test_accepted_exactly_when_every_new_segment_derives(chain, batches):
    with warnings.catch_warnings():
        # A stored 0.0 can leave a reachable state without posterior mass:
        # 0/0 rows nobody samples, on either tier.
        warnings.simplefilter("ignore", RuntimeWarning)
        dbs = [TrajectoryDatabase(_line_space(N), chain) for _ in BACKENDS]
        monitors = [_monitor(db, backend) for db, backend in zip(dbs, BACKENDS)]
        for now, events in enumerate(batches):
            derives = _derives(dbs[0], events)
            payloads = []
            for db, monitor in zip(dbs, monitors):
                v = db.version
                try:
                    report = monitor.tick(events, now=now)
                except ObservationContradictionError:
                    assert not derives, events
                    assert db.version == v
                    report = monitor.tick([], now=now)
                else:
                    assert derives, events
                payloads.append(_payloads(report))
            assert all(p == payloads[0] for p in payloads), events
            if not derives:
                break  # the next batch was drawn for a database that took this one
