"""First-order Markov chain models over discrete state spaces.

Section 3.1 of the paper: the uncertain location of object ``o`` at time
``t+1`` depends only on its location at ``t``; transition probabilities are
stored in a (possibly time-dependent) matrix ``M^o(t)`` with
``M^o_ij(t) = P(o(t+1) = s_j | o(t) = s_i)``.  Distribution vectors evolve as
``s(t+1) = M(t)^T · s(t)``.

Two concrete models are provided: :class:`MarkovChain` (time-homogeneous,
the common case) and :class:`InhomogeneousMarkovChain` (per-timestep
matrices; required e.g. by the 3-SAT reduction of Section 4.1).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .compiled import CompiledMatrix

__all__ = [
    "TransitionModel",
    "MarkovChain",
    "InhomogeneousMarkovChain",
    "validate_stochastic",
    "uniformized",
]

_ROW_SUM_TOL = 1e-8


def validate_stochastic(matrix: sparse.csr_matrix) -> None:
    """Raise ``ValueError`` unless ``matrix`` is row-stochastic.

    Every row must be a probability distribution: finite, non-negative
    entries summing to 1 within a small tolerance.  A NaN passes both
    comparisons below, so non-finite entries are refused first.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transition matrix must be square, got {matrix.shape}")
    bad = np.flatnonzero(~np.isfinite(matrix.data))
    if bad.size:
        state = int(np.searchsorted(matrix.indptr, bad[0], side="right")) - 1
        raise ValueError(
            "transition probabilities must be finite; first offending state "
            f"{state} holds {float(matrix.data[bad[0]])!r}"
        )
    if matrix.nnz and matrix.data.min() < 0:
        raise ValueError("transition probabilities must be non-negative")
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > _ROW_SUM_TOL)
    if bad.size:
        raise ValueError(
            f"rows must sum to 1; first offending state {bad[0]} sums to "
            f"{float(row_sums[bad[0]])!r}"
        )


class TransitionModel:
    """Interface of every transition model: a matrix per timestep."""

    @property
    def n_states(self) -> int:
        raise NotImplementedError

    def matrix_at(self, t: int) -> sparse.csr_matrix:
        """Transition matrix applied between times ``t`` and ``t+1``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def propagate(self, distribution: np.ndarray, t: int) -> np.ndarray:
        """One forward step: ``s(t+1) = M(t)^T · s(t)`` (dense vector form)."""
        dist = np.asarray(distribution, dtype=float)
        if dist.shape != (self.n_states,):
            raise ValueError(
                f"distribution must have shape ({self.n_states},), got {dist.shape}"
            )
        return self.matrix_at(t).T @ dist

    def successors(self, state: int, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Reachable next states and their probabilities from ``state``."""
        mat = self.matrix_at(t)
        row = mat.getrow(state)
        return row.indices.copy(), row.data.copy()

    def support(self, t: int) -> sparse.csr_matrix:
        """Boolean structure of ``matrix_at(t)`` as a matrix (a copy per call;
        reachability sweeps read the cached :meth:`adjacency` instead)."""
        mat = self.matrix_at(t)
        out = mat.copy()
        out.data = np.ones_like(out.data)
        return out

    def _per_matrix(self, name: str, t: int, build):
        """``build(matrix_at(t))``, cached per distinct matrix under ``name``.

        Keyed by the identity of ``matrix_at(t)``, so the homogeneous chain
        pays ``build`` once and an inhomogeneous chain once per distinct
        matrix.  Each entry pins the keyed matrix, so a recycled ``id()``
        can never alias a different matrix; when the cache is full one
        entry is dropped (not the whole cache — a clear-all would rebuild
        every timestep of a long inhomogeneous chain on each pass), which
        also bounds exotic subclasses that build a fresh matrix per call.
        """
        cache: dict[int, tuple[sparse.spmatrix, object]] = self.__dict__.setdefault(
            name, {}
        )
        matrix = self.matrix_at(t)
        entry = cache.get(id(matrix))
        if entry is None or entry[0] is not matrix:
            if len(cache) >= 1024:
                # Evict the *newest* entry: cyclic timestep scans (the only
                # realistic way to exceed the cap) keep their prefix hot this
                # way, whereas FIFO/LRU would evict each entry just before
                # the next pass needs it and rebuild everything.
                cache.popitem()
            entry = (matrix, build(matrix))
            cache[id(matrix)] = entry
        return entry[1]

    def compiled_step(self, t: int) -> CompiledMatrix:
        """Cached :class:`~repro.markov.compiled.CompiledMatrix` for time ``t``
        (one per distinct matrix, see :meth:`_per_matrix`)."""
        return self._per_matrix("_compiled_steps", t, CompiledMatrix)

    def adjacency(self, t: int, backward: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the boolean structure of ``matrix_at(t)``.

        Row ``i`` lists the successors of state ``i``; with ``backward`` the
        structure is transposed and row ``j`` lists the predecessors of
        ``j``.  Same entries as :meth:`support` (explicitly stored zeros
        count as structure) without a matrix copy per call: both directions
        are cached per distinct matrix like :meth:`compiled_step`.
        """
        if backward:
            return self._per_matrix("_predecessors", t, _csc_structure)
        return self._per_matrix("_successors", t, _csr_structure)

    def csr_arrays(self, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices, data)`` of ``matrix_at(t)`` as plain arrays
        (``intp`` indices), cached per distinct matrix like :meth:`adjacency`.

        The *same tuple object* comes back for every ``t`` served by one
        matrix, so its identity tells which timesteps walk the same numbers
        — what the batched adaptation kernel groups segments by.
        """
        return self._per_matrix("_csr_arrays", t, _csr_arrays)


def _csr_arrays(matrix: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    csr = sparse.csr_matrix(matrix)
    return csr.indptr.astype(np.intp), csr.indices.astype(np.intp), csr.data


def _csr_structure(matrix: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    csr = sparse.csr_matrix(matrix)
    return csr.indptr, csr.indices


def _csc_structure(matrix: sparse.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    csc = sparse.csc_matrix(matrix)
    return csc.indptr, csc.indices


class MarkovChain(TransitionModel):
    """A time-homogeneous first-order Markov chain.

    Parameters
    ----------
    matrix:
        Row-stochastic sparse matrix; row ``i`` holds the distribution of
        the successor of state ``i``.
    validate:
        Disable only for matrices already validated elsewhere (bulk
        experiment code paths).
    """

    def __init__(self, matrix: sparse.spmatrix, validate: bool = True) -> None:
        csr = sparse.csr_matrix(matrix)
        csr.sort_indices()
        if validate:
            validate_stochastic(csr)
        self._matrix = csr

    @property
    def n_states(self) -> int:
        return self._matrix.shape[0]

    @property
    def matrix(self) -> sparse.csr_matrix:
        return self._matrix

    def matrix_at(self, t: int) -> sparse.csr_matrix:
        return self._matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MarkovChain(n_states={self.n_states}, nnz={self._matrix.nnz})"


class InhomogeneousMarkovChain(TransitionModel):
    """A chain whose transition matrix varies over time.

    Parameters
    ----------
    matrices:
        Mapping ``t -> matrix`` giving the transition applied between ``t``
        and ``t+1``.
    default:
        Matrix used for timesteps absent from ``matrices``; may be omitted
        when every queried timestep is present.
    """

    def __init__(
        self,
        matrices: dict[int, sparse.spmatrix],
        default: sparse.spmatrix | None = None,
        validate: bool = True,
    ) -> None:
        if not matrices and default is None:
            raise ValueError("need at least one matrix or a default")
        self._matrices: dict[int, sparse.csr_matrix] = {}
        shape: tuple[int, int] | None = None
        for t, mat in matrices.items():
            csr = sparse.csr_matrix(mat)
            csr.sort_indices()
            if validate:
                validate_stochastic(csr)
            if shape is None:
                shape = csr.shape
            elif csr.shape != shape:
                raise ValueError("all matrices must share one shape")
            self._matrices[int(t)] = csr
        if default is not None:
            csr = sparse.csr_matrix(default)
            csr.sort_indices()
            if validate:
                validate_stochastic(csr)
            if shape is not None and csr.shape != shape:
                raise ValueError("default matrix shape mismatch")
            shape = csr.shape
            self._default: sparse.csr_matrix | None = csr
        else:
            self._default = None
        assert shape is not None
        self._n = shape[0]

    @property
    def n_states(self) -> int:
        return self._n

    def matrix_at(self, t: int) -> sparse.csr_matrix:
        mat = self._matrices.get(int(t), self._default)
        if mat is None:
            raise KeyError(f"no transition matrix defined for time {t}")
        return mat

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InhomogeneousMarkovChain(n_states={self._n}, "
            f"timesteps={sorted(self._matrices)})"
        )


def uniformized(chain: TransitionModel, t: int = 0) -> MarkovChain:
    """Replace transition weights by a uniform distribution over successors.

    This is the paper's "FBU" ablation (Fig. 12): keep the graph structure
    of the chain but forget the learned probabilities.
    """
    mat = chain.matrix_at(t).copy().tocsr()
    counts = np.diff(mat.indptr)
    data = np.ones_like(mat.data)
    scale = np.repeat(
        np.divide(1.0, counts, out=np.zeros(counts.shape), where=counts > 0),
        counts,
    )
    out = sparse.csr_matrix((data * scale, mat.indices, mat.indptr), shape=mat.shape)
    return MarkovChain(out)
