"""Tests for Markov chain models."""

import numpy as np
import pytest
from scipy import sparse

from repro.markov.chain import (
    InhomogeneousMarkovChain,
    MarkovChain,
    uniformized,
    validate_stochastic,
)


def chain_2x2(p=0.3):
    return MarkovChain(sparse.csr_matrix(np.array([[1 - p, p], [p, 1 - p]])))


class TestValidation:
    def test_valid_matrix_passes(self):
        validate_stochastic(sparse.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]])))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            validate_stochastic(sparse.csr_matrix(np.ones((2, 3)) / 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_stochastic(sparse.csr_matrix(np.array([[1.5, -0.5], [0.5, 0.5]])))

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_stochastic(sparse.csr_matrix(np.array([[0.5, 0.4], [0.5, 0.5]])))

    def test_bad_row_sum_prints_a_plain_float(self):
        with pytest.raises(ValueError) as refused:
            validate_stochastic(sparse.csr_matrix(np.array([[0.5, 0.5], [0.5, 0.4]])))
        assert str(refused.value) == "rows must sum to 1; first offending state 1 sums to 0.9"

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_stochastic(
                sparse.csr_matrix(np.array([[0.0, 0.0], [0.5, 0.5]]))
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        """NaN passes both ``< 0`` and the row-sum tolerance; it must not
        pass validation (the adaptation kernels read ``data`` raw)."""
        mat = sparse.csr_matrix(np.array([[0.5, 0.5, 0.0], [0.0, bad, 1.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="must be finite; first offending state 1 "):
            MarkovChain(mat)
        with pytest.raises(ValueError, match="first offending state 1 "):
            validate_stochastic(mat)

    def test_non_finite_reports_the_first_state_past_empty_rows(self):
        mat = sparse.csr_matrix(
            (np.array([1.0, np.nan, 1.0]), np.array([0, 1, 3]), np.array([0, 1, 1, 1, 3])),
            shape=(4, 4),
        )
        with pytest.raises(ValueError, match="first offending state 3 holds nan"):
            validate_stochastic(mat)

    def test_constructor_validates_by_default(self):
        with pytest.raises(ValueError):
            MarkovChain(sparse.csr_matrix(np.array([[0.9, 0.0], [0.0, 1.0]])))

    def test_validation_can_be_skipped(self):
        chain = MarkovChain(
            sparse.csr_matrix(np.array([[0.9, 0.0], [0.0, 1.0]])), validate=False
        )
        assert chain.n_states == 2


class TestPropagation:
    def test_propagate_matches_dense(self):
        chain = chain_2x2(0.25)
        dist = np.array([1.0, 0.0])
        out = chain.propagate(dist, 0)
        assert np.allclose(out, [0.75, 0.25])

    def test_propagate_conserves_mass(self):
        rng = np.random.default_rng(0)
        mat = rng.uniform(size=(5, 5))
        mat /= mat.sum(axis=1, keepdims=True)
        chain = MarkovChain(sparse.csr_matrix(mat))
        dist = rng.dirichlet(np.ones(5))
        out = chain.propagate(dist, 3)
        assert out.sum() == pytest.approx(1.0)

    def test_propagate_shape_check(self):
        chain = chain_2x2()
        with pytest.raises(ValueError):
            chain.propagate(np.ones(3) / 3, 0)

    def test_successors(self):
        chain = chain_2x2(0.3)
        nxt, probs = chain.successors(0, 0)
        assert set(nxt) == {0, 1}
        assert probs.sum() == pytest.approx(1.0)

    def test_support_is_binary(self):
        chain = chain_2x2()
        sup = chain.support(0)
        assert set(np.unique(sup.data)) == {1.0}


class TestInhomogeneous:
    def test_per_time_matrices(self):
        m0 = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        m1 = sparse.csr_matrix(np.eye(2))
        chain = InhomogeneousMarkovChain({0: m0, 1: m1})
        assert (chain.matrix_at(0) != m0).nnz == 0
        assert (chain.matrix_at(1) != m1).nnz == 0

    def test_default_fallback(self):
        m0 = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        chain = InhomogeneousMarkovChain({0: m0}, default=sparse.identity(2, format="csr"))
        assert chain.matrix_at(99).diagonal().sum() == 2.0

    def test_missing_time_without_default_raises(self):
        m0 = sparse.csr_matrix(np.eye(2))
        chain = InhomogeneousMarkovChain({0: m0})
        with pytest.raises(KeyError):
            chain.matrix_at(5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            InhomogeneousMarkovChain({})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            InhomogeneousMarkovChain(
                {0: sparse.identity(2, format="csr"), 1: sparse.identity(3, format="csr")}
            )

    def test_validates_each_matrix(self):
        with pytest.raises(ValueError):
            InhomogeneousMarkovChain(
                {0: sparse.csr_matrix(np.array([[0.5, 0.4], [0.0, 1.0]]))}
            )

    def test_non_finite_rejected_at_any_time_and_in_the_default(self):
        good = sparse.csr_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
        bad = sparse.csr_matrix(np.array([[0.5, 0.5], [np.nan, 1.0]]))
        with pytest.raises(ValueError, match="finite; first offending state 1 "):
            InhomogeneousMarkovChain({0: good, 1: bad})
        with pytest.raises(ValueError, match="finite; first offending state 1 "):
            InhomogeneousMarkovChain({0: good}, default=bad)


class TestUniformized:
    def test_uniform_rows(self):
        mat = sparse.csr_matrix(np.array([[0.9, 0.1, 0.0], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]]))
        uni = uniformized(MarkovChain(mat))
        row0 = uni.matrix_at(0).getrow(0)
        assert np.allclose(row0.data, 0.5)
        row1 = uni.matrix_at(0).getrow(1)
        assert np.allclose(row1.data, 1.0 / 3.0)

    def test_preserves_support(self):
        mat = sparse.csr_matrix(np.array([[0.9, 0.1], [0.0, 1.0]]))
        uni = uniformized(MarkovChain(mat))
        assert (uni.matrix_at(0).indices == mat.indices).all()
