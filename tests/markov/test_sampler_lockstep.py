"""Every sampler draws the same bytes: the row-dict walk as the oracle.

A compiled model is its :class:`~repro.markov.compiled.ModelTables`, and
three samplers carry cursors over those rows — the per-object
:meth:`CompiledModel.sample_paths`, the numpy arena's fused step tables
and the C sweep.  For one generator per request, each must return
``tests.oracles.reference_sample_paths``'s paths byte for byte, over
random windows and resumes, on both sides of
:data:`~repro.markov.arena.FUSED_DRAW_THRESHOLD`, for int32 and intp
arena outputs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.markov import native
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from tests.conftest import make_random_world
from tests.oracles import reference_sample_paths

pytestmark = pytest.mark.oracles

#: Narrow rows, and rows wider than 64 entries (every state a successor).
WORLDS = {
    "narrow": dict(seed=21, n_states=24, n_objects=8, span=14, obs_every=4),
    "wide": dict(seed=22, n_states=72, n_objects=8, span=6, obs_every=3, density=1.0),
}


@pytest.fixture(scope="module")
def adapted():
    return {
        name: [obj.adapted for obj in make_random_world(**spec)[0]]
        for name, spec in WORLDS.items()
    }


@st.composite
def _batch(draw, n_models):
    """1–8 distinct objects, each over a random window, fresh or resumed."""
    picks = draw(st.lists(st.integers(0, n_models - 1), min_size=1, max_size=8, unique=True))
    return {
        "n": draw(st.sampled_from([1, 7, 64])),
        "intp": draw(st.booleans()),
        "requests": [
            (i, *draw(st.tuples(st.floats(0, 1), st.floats(0, 1))), draw(st.booleans()),
             draw(st.integers(0, 2**16)))
            for i in picks
        ],
    }


def _requests(models, batch):
    """``(model, a, b, start_states, seed)`` per request; resumed starts
    are states of the posterior support at ``a``."""
    out = []
    for i, x, y, resumed, seed in batch["requests"]:
        model = models[i]
        span = model.t_last - model.t_first
        a = model.t_first + int(x * span)
        b = a + int(y * (model.t_last - a))
        start = None
        if resumed:
            support = model.posterior(a).states
            start = np.random.default_rng(seed).choice(support, size=batch["n"])
        out.append((model, a, b, start, seed))
    return out


def _arena_draw(requests, n, c_sweep, intp):
    arena = SamplingArena(native=c_sweep)
    if intp:
        arena._states_dtype = np.dtype(np.intp)  # as for ids past int32
    for r, (model, *_) in enumerate(requests):
        arena.ensure(f"m{r}", model.compiled)
    batch = [
        ArenaRequest(f"m{r}", a, b, np.random.default_rng(seed), start_states=start)
        for r, (_, a, b, start, seed) in enumerate(requests)
    ]
    return arena.states_dtype, sample_paths_arena(arena, batch, n)


@pytest.mark.parametrize("world", sorted(WORLDS))
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_every_sampler_draws_the_oracle_bytes(adapted, world, data):
    models = adapted[world]
    batch = data.draw(_batch(len(models)))
    n = batch["n"]
    requests = _requests(models, batch)
    want = [
        reference_sample_paths(model, np.random.default_rng(seed), n, a, b, start_states=start)
        for model, a, b, start, seed in requests
    ]
    per_object = [
        model.compiled.sample_paths(np.random.default_rng(seed), n, a, b, start_states=start)
        for model, a, b, start, seed in requests
    ]
    for got, ref in zip(per_object, want):
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    sweeps = [False, True] if native.available() else [False]
    for c_sweep in sweeps:
        dtype, drawn = _arena_draw(requests, n, c_sweep, batch["intp"])
        assert dtype == (np.intp if batch["intp"] else np.int32)
        for got, ref in zip(drawn, want):
            assert got.dtype == dtype and got.shape == ref.shape
            assert got.astype(np.intp).tobytes() == ref.tobytes(), (c_sweep, len(requests))

