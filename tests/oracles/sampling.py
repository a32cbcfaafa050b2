"""§ 5 sampling as the paper states it: walk ``F(t)`` one row at a time."""

from __future__ import annotations

import numpy as np


def _inverse_cdf_pick(values: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms through a categorical CDF (clipped against float error)."""
    picks = np.searchsorted(cdf, u, side="right")
    return values[np.minimum(picks, values.size - 1)]


def depadded_csr(table):
    """The compact CSR of a numpy-sweep arena step table, recovered the way
    the C tier once did on every build: keep each row's finite CDF prefix,
    re-cumsum the row widths, keep each row's successors plus its one
    trailing boundary entry.  A C-sweep arena must build these bytes
    directly."""
    width = table.tr_width
    cdf_rows = np.ascontiguousarray(table.tr_cdf_cols.T)  # (n_rows, W)
    finite = np.isfinite(cdf_rows)
    row_widths = finite.sum(axis=1)
    n_rows = cdf_rows.shape[0]
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(row_widths, out=indptr[1:])
    next_dense = np.asarray(table.tr_next_dense).reshape(n_rows, width + 1)
    next_mask = np.arange(width + 1)[None, :] <= row_widths[:, None]
    return cdf_rows[finite], indptr, np.ascontiguousarray(next_dense[next_mask])


def reference_sample_paths(model, rng, n, t_start=None, t_end=None, start_states=None):
    """Draw ``n`` trajectories of ``model`` over ``[t_start, t_end]`` by the
    row-dict walk over :attr:`AdaptedModel.transitions`.

    Consumes ``rng`` exactly like :meth:`AdaptedModel.sample_paths` (one
    ``rng.random(n)`` for the initial state unless ``start_states`` resumes
    the paths, then one per timestep), so for one seed it is the byte
    oracle of ``CompiledModel.sample_paths``, the numpy arena and the C
    arena — returned, like theirs, as the transpose of a tic-major buffer.
    """
    a = model.t_first if t_start is None else int(t_start)
    b = model.t_last if t_end is None else int(t_end)
    out = np.empty((b - a + 1, n), dtype=np.intp).T
    if start_states is None:
        start = model.posterior(a)
        out[:, 0] = _inverse_cdf_pick(start.states, np.cumsum(start.probs), rng.random(n))
    else:
        out[:, 0] = start_states
    for offset, t in enumerate(range(a, b)):
        current = out[:, offset]
        nxt = out[:, offset + 1]
        rows = model.transitions[t]
        u = rng.random(n)
        for state in np.unique(current):
            mask = current == state
            next_states, probs = rows[int(state)]
            nxt[mask] = _inverse_cdf_pick(next_states, np.cumsum(probs), u[mask])
    return out
