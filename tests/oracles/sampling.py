"""§ 5 sampling as the paper states it: walk ``F(t)`` one row at a time."""

from __future__ import annotations

import numpy as np


def _inverse_cdf_pick(values: np.ndarray, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms through a categorical CDF (clipped against float error)."""
    picks = np.searchsorted(cdf, u, side="right")
    return values[np.minimum(picks, values.size - 1)]


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
