"""The engine has one way to draw worlds: ``sample_paths_arena``.

On a native engine the C sweep reads each compiled model's own tables,
so no fused step table is ever built and the per-object sampler
(``CompiledModel.sample_paths``) is never called — over the ad-hoc query,
standing-monitor and moving-fleet shapes alike.  On the numpy sweep
(``backend="compiled"``) the per-object sampler survives only as the
arena's size selection for a few requests, and answers byte for byte
what the fused numpy draw answers.
"""

from __future__ import annotations

import pytest

from repro.core.evaluator import QueryEngine
from repro.core.queries import Query, QueryRequest
from repro.markov import arena as arena_module
from repro.markov import native
from repro.markov.compiled import CompiledModel
from repro.stream.ingest import AddObject
from repro.stream.monitor import ContinuousMonitor, _result_payload
from tests.serve.conftest import (
    event_script,
    feasible_extension,
    seam_script,
    seam_subscriptions,
    twin_db,
)

SEED = 23


def _adhoc(engine):
    q = Query.from_point([5.0, 5.0])
    out = []
    for times in (range(2, 8), range(4, 10), range(1, 4)):
        out.append(_result_payload(engine.forall_nn(q, times, tau=0.05)))
        out.append(_result_payload(engine.exists_nn(q, times, tau=0.1)))
    out.append(_result_payload(engine.evaluate(QueryRequest(q, (3, 4, 5, 6), "pcnn", 0.2))))
    return out


def _monitor(engine, script):
    monitor = ContinuousMonitor(engine)
    for name, request in seam_subscriptions():
        monitor.subscribe(request, name=name)
    return [
        [(n.subscription, _result_payload(n.result)) for n in monitor.tick(events).notifications]
        for events in script(engine.db)
    ]


def _fleet(engine):
    """A moving clock: every tick extends a few objects by one fix and a
    new object joins every other tick."""
    monitor = ContinuousMonitor(engine)
    q = Query.from_point([4.0, 5.0])
    monitor.subscribe(QueryRequest(q, (6, 7, 8), "forall", 0.05), name="near")
    monitor.subscribe(QueryRequest(q, (8, 9, 10), "exists", 0.1), name="later")
    history = []
    for tick in range(6):
        ids = sorted(engine.db.object_ids)
        events = [feasible_extension(engine.db, oid) for oid in ids[tick % 2 :: 2]]
        if tick % 2 == 0:
            events.append(AddObject(f"new{tick}", [(tick, 0), (tick + 4, 1)]))
        history.append(
            [(n.subscription, _result_payload(n.result)) for n in monitor.tick(events).notifications]
        )
    return history


SHAPES = {
    "adhoc": _adhoc,
    "adhoc_shared": _adhoc,
    "monitor": lambda engine: _monitor(engine, event_script),
    "monitor_seam": lambda engine: _monitor(engine, seam_script),
    "fleet": _fleet,
}


def _run(shape, **kwargs):
    if shape == "adhoc_shared":
        kwargs["reuse_worlds"] = True
    engine = QueryEngine(twin_db(), n_samples=48, seed=SEED, **kwargs)
    return engine, SHAPES[shape](engine)


@pytest.fixture
def per_object_draws(monkeypatch):
    """Every call of the per-object sampler."""
    calls = []
    real = CompiledModel.sample_paths

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(CompiledModel, "sample_paths", counting)
    return calls


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_native_engine_builds_no_step_table_and_draws_nothing_per_object(
    shape, per_object_draws
):
    if not native.available():
        pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
    engine, _ = _run(shape)
    assert engine.backend == "native"
    assert engine.sampler_calls > 0
    assert engine.metrics.value("arena_table_builds_total") == 0
    assert per_object_draws == []


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_numpy_size_selection_answers_like_the_fused_draw(shape, monkeypatch, per_object_draws):
    _, selected = _run(shape, backend="compiled")
    small = len(per_object_draws)
    monkeypatch.setattr(arena_module, "FUSED_DRAW_THRESHOLD", 0)
    engine, fused = _run(shape, backend="compiled")
    assert len(per_object_draws) == small  # the fused run drew nothing per object
    assert engine.metrics.value("arena_table_builds_total") > 0
    assert selected == fused
    if shape.startswith(("monitor", "fleet")):
        assert small > 0  # the streaming shapes redraw a few dirty objects
