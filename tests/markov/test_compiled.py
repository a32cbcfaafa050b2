"""Parity tests: compiled vs reference posterior sampling.

The compiled sampler must be a drop-in replacement for the row-dict walk
(``tests.oracles.reference_sample_paths``): same RNG stream consumption, bit-identical paths for one seed, and
(therefore) statistically indistinguishable marginals when seeds differ.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.stats import chisquare

from repro.markov import native
from repro.markov.adaptation import adapt_model
from repro.markov.arena import ArenaRequest, SamplingArena, sample_paths_arena
from repro.markov.chain import MarkovChain
from repro.markov.compiled import CompiledMatrix, compile_model
from tests.conftest import make_drift_chain
from tests.oracles import reference_sample_paths, reference_tables, same_tables

pytestmark = pytest.mark.oracles


def make_random_chain(n_states: int, seed: int, density: float = 0.3) -> MarkovChain:
    rng = np.random.default_rng(seed)
    mat = rng.uniform(size=(n_states, n_states))
    mask = rng.uniform(size=(n_states, n_states)) < density
    np.fill_diagonal(mask, True)
    mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    return MarkovChain(sparse.csr_matrix(mat))


@pytest.fixture
def drift_model():
    chain = make_drift_chain()
    return adapt_model(chain, [(0, 0), (4, 2), (8, 3)])


@pytest.fixture
def random_model():
    chain = make_random_chain(n_states=40, seed=3)
    # Observations chosen by rolling the chain so they are reachable.
    rng = np.random.default_rng(0)
    state, obs = 0, [(0, 0)]
    for t in range(1, 13):
        nxt, probs = chain.successors(state, t - 1)
        state = int(rng.choice(nxt, p=probs))
        if t % 4 == 0:
            obs.append((t, state))
    return adapt_model(chain, obs)


class TestCompileModel:
    def test_tables_cover_span(self, random_model):
        compiled = compile_model(random_model)
        assert compiled.t_first == random_model.t_first
        assert compiled.t_last == random_model.t_last
        row0 = compiled.tables.row0
        assert row0.size == compiled.t_last - compiled.t_first + 2
        for t in range(compiled.t_first, compiled.t_last):
            rows = row0[t - compiled.t_first + 1] - row0[t - compiled.t_first]
            assert rows == len(random_model.transitions[t])
        same_tables(
            compiled.tables,
            reference_tables(random_model.transitions, random_model.posteriors),
            ("random",),
        )

    def test_lazy_view_cached(self, random_model):
        assert random_model.compiled is random_model.compiled

    def test_empty_transition_row_rejected(self, drift_model):
        import dataclasses

        rows = {t: dict(v) for t, v in drift_model.transitions.items()}
        s0 = next(iter(rows[drift_model.t_first]))
        rows[drift_model.t_first][s0] = (np.empty(0, dtype=np.intp), np.empty(0))
        broken = dataclasses.replace(drift_model, transitions=rows)
        with pytest.raises(ValueError, match="empty transition row"):
            compile_model(broken)


class TestBitParity:
    """Same seed ⇒ identical paths from the sampler and its oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_paths_bit_identical(self, random_model, seed):
        rng_c = np.random.default_rng(seed)
        rng_r = np.random.default_rng(seed)
        paths_c = random_model.sample_paths(rng_c, 200)
        paths_r = reference_sample_paths(random_model, rng_r, 200)
        np.testing.assert_array_equal(paths_c, paths_r)

    def test_window_bit_identical(self, random_model):
        a = random_model.t_first + 1
        b = random_model.t_last - 1
        paths_c = random_model.sample_paths(np.random.default_rng(11), 100, a, b)
        paths_r = reference_sample_paths(random_model, np.random.default_rng(11), 100, a, b)
        np.testing.assert_array_equal(paths_c, paths_r)

    def test_drift_model_bit_identical(self, drift_model):
        paths_c = drift_model.sample_paths(np.random.default_rng(2), 500)
        paths_r = reference_sample_paths(drift_model, np.random.default_rng(2), 500)
        np.testing.assert_array_equal(paths_c, paths_r)


class TestDistributionalParity:
    @pytest.mark.parametrize("backend", ["compiled", "reference"])
    def test_marginals_chi_squared(self, random_model, backend):
        """The sampler's and the oracle's per-timestep marginals fit the
        analytic posterior.

        Goodness-of-fit against the exact posterior distribution per
        timestep (rare states pooled so expected counts stay above ~5); a
        biased draw transform in either would fail many timesteps.
        """
        n = 3000
        rng = np.random.default_rng(100)
        paths = (
            random_model.sample_paths(rng, n)
            if backend == "compiled"
            else reference_sample_paths(random_model, rng, n)
        )
        failures = 0
        tested = 0
        for col, t in enumerate(
            range(random_model.t_first, random_model.t_last + 1)
        ):
            post = random_model.posterior(t)
            if post.states.size == 1:
                continue
            counts = np.array([(paths[:, col] == s).sum() for s in post.states])
            expected = n * post.probs
            keep = expected >= 5
            if keep.sum() < 2:
                continue
            obs = np.append(counts[keep], counts[~keep].sum())
            exp = np.append(expected[keep], expected[~keep].sum())
            obs, exp = obs[exp > 0], exp[exp > 0]
            _, p = chisquare(obs, exp * obs.sum() / exp.sum())
            tested += 1
            failures += p < 1e-3
        assert tested >= 5
        assert failures <= 1  # allow one outlier across the span

    def test_marginals_match_posterior(self, drift_model):
        """Compiled marginals converge to the analytic posteriors."""
        n = 4000
        paths = drift_model.sample_paths(np.random.default_rng(5), n)
        for col, t in enumerate(range(drift_model.t_first, drift_model.t_last + 1)):
            post = drift_model.posterior(t)
            for s, p_true in zip(post.states, post.probs):
                p_hat = (paths[:, col] == s).mean()
                assert p_hat == pytest.approx(p_true, abs=0.05)


class TestDrawArguments:
    """One argument check (``markov.compiled.check_draw``) at every sampler
    entry point: a fractional start state is refused, not resumed from its
    truncation, and a count below 1 names itself."""

    @pytest.fixture
    def resume(self, drift_model):
        paths = drift_model.sample_paths(np.random.default_rng(1), 2, 0, 3)
        return paths[:, -1]

    def _arena_draw(self, model, n, a, b, start_states=None):
        arena = SamplingArena()
        arena.ensure("o", model.compiled)
        request = ArenaRequest("o", a, b, np.random.default_rng(2), start_states=start_states)
        return sample_paths_arena(arena, [request], n)[0]

    def _samplers(self, model):
        return {
            "adapted": lambda n, *args, **kw: model.sample_paths(
                np.random.default_rng(2), n, *args, **kw
            ),
            "compiled": lambda n, *args, **kw: model.compiled.sample_paths(
                np.random.default_rng(2), n, *args, **kw
            ),
            "arena": lambda n, *args, **kw: self._arena_draw(model, n, *args, **kw),
        }

    @pytest.mark.parametrize("sampler", ["adapted", "compiled", "arena"])
    def test_fractional_start_states_refused(self, drift_model, resume, sampler):
        draw = self._samplers(drift_model)[sampler]
        bad = resume + np.array([0.7, 0.2])
        with pytest.raises(ValueError, match="start_states must be integers"):
            draw(2, 3, 5, start_states=bad)
        with pytest.raises(ValueError, match="start_states must be integers"):
            draw(2, 3, 5, start_states=np.array([float(resume[0]), np.nan]))
        exact = draw(2, 3, 5, start_states=resume)
        floats = draw(2, 3, 5, start_states=resume.astype(float))
        np.testing.assert_array_equal(floats, exact)

    @pytest.mark.parametrize("sampler", ["adapted", "compiled", "arena"])
    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_counts_below_one_refused(self, drift_model, sampler, n):
        draw = self._samplers(drift_model)[sampler]
        with pytest.raises(ValueError, match="n must be a positive integer"):
            draw(n, 0, 3)


class TestWideRows:
    """Rows of any width draw the row walk's pick: the count of the row's
    raw CDF entries ``<= u``."""

    WIDE = 128  # a row width well past anything the benchmark chains make

    @pytest.fixture
    def wide_model(self):
        n = self.WIDE  # one row fans out to every state
        mat = sparse.lil_matrix((n, n))
        mat[0, :] = 1.0 / n
        for s in range(1, n):
            mat[s, s] = 1.0  # absorbing elsewhere
        chain = MarkovChain(sparse.csr_matrix(mat))
        return adapt_model(chain, [(0, 0)], extend_to=2)

    def test_parity_and_distribution(self, wide_model):
        assert np.diff(wide_model.compiled.tables.indptr).max() == self.WIDE
        paths_c = wide_model.sample_paths(np.random.default_rng(8), 3000)
        paths_r = reference_sample_paths(wide_model, np.random.default_rng(8), 3000)
        np.testing.assert_array_equal(paths_c, paths_r)
        # Uniform fan-out: every successor roughly equally likely at t=1.
        counts = np.bincount(paths_c[:, 1], minlength=wide_model.posterior(1).states.size)
        assert counts.max() <= 3 * max(counts[counts > 0].min(), 1) + 30


class _Halves:
    """A stub generator whose every variate is 0.5."""

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.fill(0.5)
        return out


@pytest.fixture
def boundary_row():
    """1 001 rows; row 1000 fans out to 65 successors with
    ``cdf[0] = 0.5 + 1e-14``, so the row walk maps ``u = 0.5`` to successor
    0 — while ``1000 + cdf[0]`` rounds onto ``1000 + 0.5``, the collision a
    row-offset ``searchsorted(cdf + row, row + u)`` cannot tell apart."""
    m, fan = 1001, 65
    probs = np.full(fan, (0.5 - 1e-14) / (fan - 1))
    probs[0] = 0.5 + 1e-14
    assert 1000 + np.cumsum(probs)[0] == 1000 + 0.5
    support, next_support = np.arange(m), np.arange(fan)
    indptr = np.concatenate([np.arange(m), [m - 1 + fan]])
    next_states = np.concatenate([np.zeros(m - 1, dtype=np.intp), next_support])
    all_probs = np.concatenate([np.ones(m - 1), probs])
    stretch = SimpleNamespace(
        key=(0, None, 1, None),
        layers=[(support, indptr, next_states, all_probs)],
        posterior=[(support, np.full(m, 1 / m)), (next_support, probs)],
        compiled=None,
    )
    model = compile_model(SimpleNamespace(t_first=0, t_last=1, stretches=lambda: (stretch,)))
    walk = SimpleNamespace(transitions={0: {m - 1: (next_support, probs)}})
    (want,) = reference_sample_paths(
        walk, _Halves(), 1, 0, 1, start_states=np.array([m - 1])
    )[:, 1]
    assert want == 0
    matrix = sparse.csr_matrix((all_probs, next_states, indptr), shape=(m, m))
    return matrix, model, want


class TestBoundaryRow:
    """Every sampler picks the row walk's successor on a row whose offset
    CDF and offset variate round to the same double."""

    def test_compiled_matrix(self, boundary_row):
        matrix, _, want = boundary_row
        assert CompiledMatrix(matrix).draw(np.array([1000]), np.array([0.5]))[0] == want

    def test_per_object_sampler(self, boundary_row):
        _, model, want = boundary_row
        paths = model.sample_paths(_Halves(), 3, 0, 1, start_states=np.full(3, 1000))
        assert (paths[:, 1] == want).all()

    @pytest.mark.parametrize("c_sweep", [False, True], ids=["numpy", "c"])
    def test_arena(self, boundary_row, c_sweep):
        if c_sweep and not native.available():
            pytest.skip(f"native tier unavailable ({native.unavailable_reason()})")
        _, model, want = boundary_row
        arena = SamplingArena(native=c_sweep)
        arena.ensure("hub", model)
        (paths,) = sample_paths_arena(
            arena, [ArenaRequest("hub", 0, 1, _Halves(), start_states=np.full(3, 1000))], 3
        )
        assert (paths[:, 1] == want).all()


class TestCompiledMatrix:
    def test_matches_row_distribution(self):
        chain = make_drift_chain()
        step = chain.compiled_step(0)
        states = np.zeros(20_000, dtype=np.intp)
        u = np.random.default_rng(0).random(20_000)
        nxt = step.draw(states, u)
        succ, probs = chain.successors(0, 0)
        for s, p in zip(succ, probs):
            assert (nxt == s).mean() == pytest.approx(p, abs=0.02)

    def test_dead_end_raises(self):
        mat = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        step = CompiledMatrix(mat)
        with pytest.raises(ValueError, match="no successors"):
            step.draw(np.array([1]), np.array([0.5]), t=3)

    def test_step_cache_reused(self):
        chain = make_drift_chain()
        assert chain.compiled_step(0) is chain.compiled_step(7)

    def test_empty_trailing_rows(self):
        mat = sparse.csr_matrix(np.array([[0.5, 0.5, 0.0], [0, 0, 0], [0, 0, 0]]))
        step = CompiledMatrix(mat)
        nxt = step.draw(np.zeros(100, dtype=np.intp), np.linspace(0, 0.999, 100))
        assert set(np.unique(nxt)) == {0, 1}

    def test_fresh_matrix_per_call_not_aliased(self):
        """A chain building matrices on the fly must not be served a stale
        CompiledMatrix via a recycled id() (regression test)."""
        from repro.markov.chain import TransitionModel

        class FreshChain(TransitionModel):
            """Deterministic rotation by (t+1): a new matrix every call."""

            @property
            def n_states(self):
                return 4

            def matrix_at(self, t):
                mat = sparse.lil_matrix((4, 4))
                for s in range(4):
                    mat[s, (s + t + 1) % 4] = 1.0
                return sparse.csr_matrix(mat)

        chain = FreshChain()
        u = np.zeros(8)
        states = np.zeros(8, dtype=np.intp)
        # t=0 rotates by 1, t=1 rotates by 2: if the id-keyed cache aliased
        # the freed t=0 matrix, the second draw would also rotate by 1.
        assert (chain.compiled_step(0).draw(states, u) == 1).all()
        assert (chain.compiled_step(1).draw(states, u) == 2).all()
