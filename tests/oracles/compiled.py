"""The per-stretch compile: one stretch's tables, tic by tic.

The form :func:`repro.markov.compiled.compile_models` replaced — it
compiles every pending stretch of a batch in one vectorised pass and must
match this stretch-by-stretch build array for array, errors included.
"""

from __future__ import annotations

import numpy as np

from repro.markov.compiled import ModelTables, _with_trailing


def _padded_row_cdfs(indptr: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Every CSR row's ``np.cumsum`` through one zero-padded matrix."""
    sizes = np.diff(indptr)
    rows = np.repeat(np.arange(sizes.size, dtype=np.intp), sizes)
    offsets = np.arange(rows.size, dtype=np.intp) - indptr[rows]
    dense = np.zeros((sizes.size, int(sizes.max())))
    dense[rows, offsets] = probs
    np.cumsum(dense, axis=1, out=dense)
    return dense[rows, offsets]


def reference_stretch_tables(seg) -> ModelTables:
    """The :class:`ModelTables` of one stretch, for the tics ``t0 <= t < t1``."""
    row0 = np.zeros(len(seg.layers) + 1, dtype=np.intp)
    np.cumsum([layer[0].size for layer in seg.layers], out=row0[1:])
    successors = []
    for (support, indptr, next_states, _), (next_support, _), base in zip(
        seg.layers, seg.posterior[1:], row0[1:]
    ):
        empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        if empty.size:
            raise ValueError(
                f"adapted model is inconsistent: state {int(support[empty[0]])} has "
                "an empty transition row (sampling it would be undefined)"
            )
        local = np.searchsorted(next_support, next_states)
        if not np.array_equal(
            next_support[np.minimum(local, next_support.size - 1)], next_states
        ):
            raise ValueError(
                "adapted model is inconsistent: a transition targets a state "
                "outside the next timestep's posterior support"
            )
        successors.append(local + base)
    indptr = np.zeros(row0[-1] + 1, dtype=np.intp)
    np.cumsum(np.concatenate([np.diff(layer[1]) for layer in seg.layers]), out=indptr[1:])
    return ModelTables(
        row0,
        np.concatenate([layer[0] for layer in seg.layers]),
        np.concatenate([np.cumsum(probs) for _, probs in seg.posterior[:-1]]),
        _padded_row_cdfs(indptr, np.concatenate([layer[3] for layer in seg.layers])),
        indptr,
        _with_trailing(indptr, np.concatenate(successors)),
    )
