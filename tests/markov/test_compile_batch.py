"""One compile pass per batch vs the per-stretch compile.

``compile_models`` compiles every stretch a batch of adapted models has
not compiled yet in one vectorised pass — one padded cumulative sum for
all transition rows and one for all initial tables, one successor search
keyed by stretch-tic, one trailing-entry insert — and cuts each stretch's
record out of it.  Random batches (chains of mixed out-degree, ≥ 8
included, so row widths differ inside one padded block; open cones;
stretches carried over already compiled; any block size of the padded
cumulative sum) are held array by array, every ``ModelTables`` field, to
``tests.oracles.reference_stretch_tables``; corrupted stretches raise the
oracle's first "adapted model is inconsistent" error, text for text.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.markov import compiled as compiled_module
from repro.markov.adaptation import Segment, adapt_model
from repro.markov.chain import MarkovChain
from repro.markov.compiled import compile_models
from tests.oracles import reference_stretch_tables, reference_tables, same_tables

pytestmark = pytest.mark.oracles


def _chain(rng, n_states, degree):
    mat = np.zeros((n_states, n_states))
    for i in range(n_states):
        near = rng.choice(n_states, size=min(degree, n_states), replace=False)
        mat[i, near] = rng.uniform(0.1, 1.0, size=near.size)
        mat[i, i] += 0.5
    return MarkovChain(sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True)))


def _model(rng, chain):
    """An adapted model over a walk of ``chain`` observed at random tics."""
    state = int(rng.integers(chain.n_states))
    walk = [state]
    for t in range(12):
        nxt, probs = chain.successors(walk[-1], t)
        walk.append(int(rng.choice(nxt, p=probs)))
    times = sorted({0, *(int(t) for t in rng.integers(1, 13, size=3))})
    extend_to = times[-1] + int(rng.integers(1, 4)) if rng.uniform() < 0.4 else None
    return adapt_model(chain, [(t, walk[t]) for t in times], extend_to=extend_to)


def _batch(seed, n_models):
    rng = np.random.default_rng(seed)
    chains = [_chain(rng, 16, degree) for degree in (2, 4, 9)]
    return rng, [_model(rng, chains[int(rng.integers(len(chains)))]) for _ in range(n_models)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_models=st.integers(1, 6),
    carried=st.integers(0, 3),
    block=st.sampled_from([1, 5, 64, 1 << 20]),
)
def test_batch_matches_the_per_stretch_compile(seed, n_models, carried, block):
    rng, models = _batch(seed, n_models)
    stretches = [seg for model in models for seg in model.stretches()]
    for seg in stretches[:carried]:  # carried over from an earlier model
        seg.compiled = reference_stretch_tables(seg)
    want = [reference_stretch_tables(seg) for seg in stretches]
    carried_tables = [seg.compiled for seg in stretches[:carried]]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled_module, "_CDF_BLOCK", block)
        compiled = compile_models(models)
    for i, (seg, tables) in enumerate(zip(stretches, want)):
        if i < carried:
            assert seg.compiled is carried_tables[i]
        same_tables(seg.compiled, tables, (seed, i))
        for field in seg.compiled:
            assert field.base is None  # a record owns its arrays
    for model, view in zip(models, compiled):
        same_tables(view.tables, reference_tables(model.transitions, model.posteriors), (seed,))


def _offsets(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.intp)


def _empty_row(seg, tic, row):
    support, indptr, next_states, probs = seg.layers[tic]
    row %= support.size
    keep = np.r_[0 : indptr[row], indptr[row + 1] : next_states.size]
    sizes = np.diff(indptr)
    sizes[row] = 0
    return support, _offsets(sizes), next_states[keep], probs[keep]


def _outside(seg, tic, entry):
    support, indptr, next_states, probs = seg.layers[tic]
    if not next_states.size:  # every row emptied by an earlier fault
        return seg.layers[tic]
    outside = sorted(set(range(next_states.max() + 2)) - set(seg.posterior[tic + 1][0].tolist()))
    bad = next_states.copy()
    bad[entry % bad.size] = outside[entry % len(outside)]
    return support, indptr, bad, probs


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_models=st.integers(1, 5),
    # Small picks: faults often share a stretch, and a tic too.
    faults=st.lists(
        st.tuples(st.sampled_from(["empty", "outside"]), st.integers(0, 5)),
        min_size=1, max_size=3,
    ),
)
@example(seed=0, n_models=1, faults=[("outside", 0), ("empty", 0)])  # one tic, both
def test_inconsistent_stretches_raise_the_first_error(seed, n_models, faults):
    _, models = _batch(seed, n_models)
    stretches = [list(model.stretches()) for model in models]
    flat = [(m, s) for m, segs in enumerate(stretches) for s in range(len(segs))]
    for kind, pick in faults:
        m, s = flat[pick % len(flat)]
        seg = stretches[m][s]
        tic = pick % len(seg.layers)
        layers = list(seg.layers)
        layers[tic] = (_empty_row if kind == "empty" else _outside)(seg, tic, pick)
        stretches[m][s] = Segment(seg.key, layers, seg.posterior, seg.forward)
    with pytest.raises(ValueError) as expected:
        for segs in stretches:
            for seg in segs:
                reference_stretch_tables(seg)
    assert "adapted model is inconsistent" in str(expected.value)
    broken = [
        SimpleNamespace(t_first=model.t_first, t_last=model.t_last, stretches=lambda s=segs: tuple(s))
        for model, segs in zip(models, stretches)
    ]
    with pytest.raises(ValueError) as raised:
        compile_models(broken)
    assert str(raised.value) == str(expected.value)
