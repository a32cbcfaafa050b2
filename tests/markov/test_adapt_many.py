"""The batched adaptation kernel vs the whole-lifespan reference sweep.

``adapt_many`` stacks every pending segment of every request into one CSR
sweep per tic offset; ``compile_model`` reads the kernel's per-tic CSR
directly.  Byte identity is the contract — not ``allclose``: every ``F(t)``
row, posterior, forward marginal, compiled layer array and initial table
must carry the bytes and dtypes of ``reference_adapt`` (Algorithm 2 as one
scipy sweep per object) and of the per-row layer builder
``reference_layer`` — both in ``tests/oracles/`` — whatever the batch a
segment rode in.

The trap is summation order: scipy's column sums are ``np.add.reduceat``
(``x0 + pairwise(x[1:])``) while the three normalisers are ``ndarray.sum()``
(``pairwise(x)``, strictly left to right below eight addends), so the wide
chain here has out- and in-degree ≥ 8 everywhere.
"""

import pickle
import warnings

import numpy as np
import pytest
from scipy import sparse

from repro.markov.adaptation import (
    AdaptedModel,
    ObservationContradictionError,
    adapt_many,
    adapt_model,
)
from repro.markov.chain import InhomogeneousMarkovChain, MarkovChain
from tests.oracles import (
    reference_adapt,
    reference_layer,
    same_array,
    same_distributions,
    same_transitions,
)

pytestmark = pytest.mark.stream

T_END = 48


def _check_against_reference(model, chain, observations, extend_to, context):
    assert isinstance(model, AdaptedModel), (context, model)
    transitions, posteriors, forwards = reference_adapt(chain, observations, extend_to)
    same_transitions(model.transitions, transitions, (*context, "F"))
    same_distributions(model.posteriors, posteriors, (*context, "posterior"))
    same_distributions(model.forwards, forwards, (*context, "forward"))
    if not all(
        np.isin(np.concatenate([row[0] for row in rows.values()]), posteriors[t + 1].states).all()
        for t, rows in transitions.items()
    ):
        # A cone over a stored 0.0 lists a successor the marginal never
        # reaches: such a model cannot be sampled, before as after.
        with pytest.raises(ValueError, match="outside the next timestep's posterior support"):
            model.compiled
        return
    compiled = model.compiled
    assert (compiled.t_first, compiled.t_last) == (min(posteriors), max(posteriors))
    for t, dist in posteriors.items():
        states, cdf = compiled.initial_table(t)
        same_array(states, dist.states, (*context, t, "initial states"))
        same_array(cdf, np.cumsum(dist.probs), (*context, t, "initial cdf"))
    for t, rows in transitions.items():
        want = reference_layer(rows, posteriors[t + 1].states)
        for name, array in want.items():
            same_array(getattr(compiled.layer(t), name), array, (*context, t, name))


# ----------------------------------------------------------------------
# chains
# ----------------------------------------------------------------------
def _normalised(mat):
    return sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True))


def _sparse_matrix(rng, n=24, degree=3):
    mat = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n, size=degree, replace=False)
        mat[i, cols] = rng.uniform(0.1, 1.0, size=degree)
    return _normalised(mat)


def _banded_matrix(rng, n=30, degree=11):
    """``i -> i, i+1, …, i+degree-1 (mod n)``: out- and in-degree ``degree``."""
    mat = np.zeros((n, n))
    for i in range(n):
        mat[i, (i + np.arange(degree)) % n] = rng.uniform(0.1, 1.0, size=degree)
    return _normalised(mat)


def _zero_riddled_matrix(rng, n=24, degree=5):
    """Every row stores two transitions of probability exactly 0.0."""
    csr = _sparse_matrix(rng, n, degree)
    for i in range(n):
        row = slice(csr.indptr[i], csr.indptr[i + 1])
        values = csr.data[row]
        values[rng.choice(degree, size=2, replace=False)] = 0.0
        csr.data[row] = values / values.sum()
    assert (csr.data == 0.0).sum() == 2 * n and csr.nnz == degree * n
    return csr


def _homogeneous(rng):
    chain = MarkovChain(_sparse_matrix(rng))
    return lambda: chain


def _inhomogeneous(rng):
    chain = InhomogeneousMarkovChain(
        {t: _sparse_matrix(rng) for t in range(0, T_END + 8, 2)},
        default=_sparse_matrix(rng),
    )
    return lambda: chain


def _per_object(rng):
    return lambda: MarkovChain(_sparse_matrix(rng))


def _wide(rng):
    chain = MarkovChain(_banded_matrix(rng))
    assert np.diff(chain.matrix.indptr).min() >= 8
    assert np.diff(chain.matrix.tocsc().indptr).min() >= 8
    return lambda: chain


def _explicit_zeros(rng):
    chain = MarkovChain(_zero_riddled_matrix(rng))
    return lambda: chain


#: A row width past 64 — wider than any benchmark or experiment chain.
WIDE_ROWS = 70


def _dense(rng):
    """Rows of ``WIDE_ROWS`` entries: the widest padded layer layout."""
    n = WIDE_ROWS
    chain = MarkovChain(_normalised(rng.uniform(0.1, 1.0, size=(n, n))))
    return lambda: chain


CHAINS = {
    "homogeneous": _homogeneous,
    "inhomogeneous": _inhomogeneous,
    "per-object": _per_object,
    "wide": _wide,
    "explicit-zeros": _explicit_zeros,
    "dense": _dense,
}


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
def _walk(rng, chain, t_start, t_end):
    """A hidden walk of positive-probability steps: every subset of its tics
    is a feasible observation history."""
    state = int(rng.integers(chain.n_states))
    walk = {t_start: state}
    for t in range(t_start, t_end):
        nxt, probs = chain.successors(state, t)
        state = int(rng.choice(nxt, p=probs))
        walk[t + 1] = state
    return walk


def _request(rng, chain, i, max_gap=9, donor_cone=True):
    """Object ``i`` of a batch: ragged gaps 1…9, sometimes one fix only,
    sometimes an ``extend_to`` cone, sometimes a donor holding a prefix
    (and a cone of its own, which the longer history supersedes)."""
    t_first = int(rng.integers(0, 6))
    walk = _walk(rng, chain, t_first, T_END + 8)
    times = [t_first]
    for _ in range((0, 1, 3, 5)[i % 4]):
        times.append(times[-1] + int(rng.integers(1, max_gap + 1)))
    observations = [(t, walk[t]) for t in times]
    extend_to = times[-1] + int(rng.integers(1, 6)) if i % 3 == 0 else None
    donor = None
    if i % 4 == 3:
        donor = adapt_model(
            chain, observations[:3], extend_to=times[2] + 2 if donor_cone else None
        )
        donor.compiled
    return chain, observations, extend_to, donor


@pytest.mark.parametrize("batch", [1, 2, 17])
@pytest.mark.parametrize("kind", CHAINS)
def test_batch_matches_the_reference_sweep(kind, batch):
    rng = np.random.default_rng([batch, sorted(CHAINS).index(kind)])
    chain_of = CHAINS[kind](rng)
    max_gap = 3 if kind == "dense" else 9
    # (a cone over a stored 0.0 cannot be compiled, so that donor has none)
    donor_cone = kind != "explicit-zeros"
    # A lone request is rotated through the four shapes (one fix, one
    # segment, cone, donor) so B = 1 meets each of them.
    rounds = 4 if batch == 1 else 1
    with warnings.catch_warnings():
        # A stored 0.0 can leave a reachable state without posterior mass:
        # 0/0 rows, in the reference exactly as in the kernel.
        warnings.simplefilter("ignore", RuntimeWarning)
        for first in range(rounds):
            requests = [
                _request(rng, chain_of(), first + i, max_gap, donor_cone)
                for i in range(batch)
            ]
            models = adapt_many(requests)
            assert len(models) == len(requests)
            for i, (request, model) in enumerate(zip(requests, models)):
                chain, observations, extend_to, donor = request
                _check_against_reference(
                    model, chain, observations, extend_to, (kind, batch, first + i)
                )
                if donor is not None:
                    # Two closed stretches carried over, compiled layers and
                    # all; the donor's cone is superseded.
                    assert model.segments[:2] == donor.segments[:2]
                    assert all(seg.compiled is not None for seg in model.segments[:2])


def test_a_segment_is_the_same_whatever_batch_it_rides_in():
    """Alone, with one peer, or among seventeen of mixed gaps and chains."""
    rng = np.random.default_rng(77)
    shared, own = MarkovChain(_banded_matrix(rng)), MarkovChain(_sparse_matrix(rng))
    requests = [_request(rng, own if i % 5 == 4 else shared, i) for i in range(17)]
    together = adapt_many(requests)
    for i, request in enumerate(requests):
        alone = adapt_model(*request)
        paired = adapt_many([requests[i - 1], request])[1]
        for other in (alone, paired):
            assert len(other.segments) == len(together[i].segments)
            for a, b in zip(together[i].segments, other.segments):
                assert a.key == b.key
                if a is b:  # carried over from the request's donor
                    continue
                for x, y in zip(
                    (*sum(a.layers, ()), *sum(a.posterior, ()), *sum(a.forward, ())),
                    (*sum(b.layers, ()), *sum(b.posterior, ()), *sum(b.forward, ())),
                ):
                    same_array(x, y, (i, a.key))


def test_records_own_their_arrays():
    """A retired stretch must free its memory whatever became of its peers."""
    rng = np.random.default_rng(3)
    chain = MarkovChain(_sparse_matrix(rng))
    for model in adapt_many([_request(rng, chain, 1 + 4 * i) for i in range(5)]):
        for seg in model.segments:
            arrays = (*sum(seg.layers, ()), *sum(seg.posterior, ()), *sum(seg.forward, ()))
            assert all(a.base is None for a in arrays), seg.key


def test_models_survive_pickling():
    """Shard views ship their objects to worker processes, models included —
    before and after the row-dictionary views were first asked for."""
    rng = np.random.default_rng(9)
    chain = MarkovChain(_sparse_matrix(rng))
    request = _request(rng, chain, 6)  # three segments and a cone
    fresh, touched = adapt_many([request, request])
    touched.compiled, touched.transitions[request[1][0][0]], len(touched.posteriors)
    for model in (fresh, touched):
        clone = pickle.loads(pickle.dumps(model))
        _check_against_reference(clone, *request[:3], ("pickled",))
        paths = [m.sample_paths(np.random.default_rng(1), 16) for m in (model, clone)]
        assert np.array_equal(*paths)


# ----------------------------------------------------------------------
# a contradicting request fails alone
# ----------------------------------------------------------------------
class TestBatchPeersFailAlone:
    @pytest.fixture
    def chain(self):
        """A 6-state drift chain (``i -> i, i+1``, halves) whose step
        ``2 -> 3`` is stored with probability 0.0: reachable by structure,
        impossible by the numbers."""
        indptr = [0, 2, 4, 6, 8, 10, 11]
        indices = [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
        data = [0.5, 0.5, 0.5, 0.5, 1.0, 0.0, 0.5, 0.5, 0.5, 0.5, 1.0]
        return MarkovChain(sparse.csr_matrix((data, indices, indptr), shape=(6, 6)))

    CASES = [
        # jumps two states in one tic: the support never gets there
        ("unreachable", [(0, 0), (3, 1), (4, 3), (7, 4)], "observation (t=4, state=3) has zero"),
        # the stored zero: structure says yes, probability says no
        ("zero-probability", [(0, 1), (2, 2), (3, 3)], "observation (t=3, state=3) has zero"),
        # walks backwards on a drift-only chain, twice: the earlier one is reported
        ("two-contradictions", [(0, 2), (2, 1), (4, 4), (6, 3)], "observation (t=2, state=1) has"),
        # malformed requests are plain ValueErrors, and fail alone just the same
        ("out-of-range", [(0, 0), (2, 9)], "observed state 9 outside state space"),
        ("unsorted", [(3, 0), (2, 1)], "observation times must be strictly increasing"),
    ]

    @pytest.mark.parametrize("name, bad, message", CASES)
    def test_good_bad_good(self, chain, name, bad, message):
        good = [(0, 3), (3, 4), (6, 4)]
        with pytest.raises(ValueError) as alone:
            adapt_model(chain, bad)
        assert str(alone.value).startswith(message)
        assert isinstance(alone.value, ObservationContradictionError) == (
            name not in ("out-of-range", "unsorted")
        )
        first, failed, last = adapt_many(
            [(chain, good, 8, None), (chain, bad, None, None), (chain, good[:2], None, None)]
        )
        assert type(failed) is type(alone.value)
        assert str(failed) == str(alone.value)
        _check_against_reference(first, chain, good, 8, (name, "first"))
        _check_against_reference(last, chain, good[:2], None, (name, "last"))

    def test_support_dying_out_is_reported_for_its_segment_only(self):
        """State 2 has no successors at all (a non-stochastic chain)."""
        mat = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0]])
        chain = MarkovChain(sparse.csr_matrix(mat), validate=False)
        dead, cone, fine = adapt_many(
            [
                (chain, [(0, 2), (2, 2)], None, None),
                (chain, [(0, 1)], 3, None),
                (chain, [(0, 0), (2, 1)], None, None),
            ]
        )
        assert str(dead) == "chain support dies out at time 1 before reaching the next observation"
        assert str(cone) == "state 2 has no successors at time 1"
        assert isinstance(dead, ObservationContradictionError)
        assert isinstance(cone, ObservationContradictionError)
        _check_against_reference(fine, chain, [(0, 0), (2, 1)], None, ("fine",))

    def test_donor_survives_a_failed_successor(self, chain):
        donor = adapt_model(chain, [(0, 0), (3, 2), (6, 2)])
        donor.compiled
        before = [(seg, seg.compiled) for seg in donor.segments]
        failed, fine = adapt_many(
            [
                (chain, [(0, 0), (3, 2), (6, 2), (7, 3)], None, donor),
                (chain, [(0, 0), (3, 2), (6, 2), (7, 2)], None, donor),
            ]
        )
        assert isinstance(failed, ObservationContradictionError)
        assert [(seg, seg.compiled) for seg in donor.segments] == before
        assert fine.segments[:2] == donor.segments
        _check_against_reference(
            fine, chain, [(0, 0), (3, 2), (6, 2), (7, 2)], None, ("after a failed peer",)
        )
