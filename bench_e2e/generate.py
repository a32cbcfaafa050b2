"""Workload generators: the benchmark's own code, numpy/scipy only.

Nothing here imports the program under test, so a parent commit and a
change always receive byte-identical inputs for one seed.  The recipe is
the one the paper's synthetic experiments use: a k-nearest-neighbour
geometric graph over random points becomes a row-stochastic chain with
self-loops, random walks on it are the ground truth, and every
``obs_every``-th position of a walk is kept as an observation.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree


class Network:
    """Random points in ``[0, 100]^2`` and a local-motion chain over them."""

    def __init__(self, rng: np.random.Generator, n_states: int, k_nn: int) -> None:
        self.coords = rng.uniform(0.0, 100.0, size=(n_states, 2))
        # Column 0 is the state itself (distance 0): the self-loop.
        _, self._successors = cKDTree(self.coords).query(self.coords, k=k_nn + 1)
        weights = rng.uniform(0.5, 1.0, size=self._successors.shape)
        weights /= weights.sum(axis=1, keepdims=True)
        self._cdf = np.cumsum(weights, axis=1)
        width = k_nn + 1
        self.matrix = sparse.csr_matrix(
            (
                weights.ravel(),
                self._successors.ravel(),
                np.arange(0, n_states * width + 1, width),
            ),
            shape=(n_states, n_states),
        )
        self.matrix.sort_indices()

    def walks(self, rng: np.random.Generator, n_walks: int, n_steps: int) -> np.ndarray:
        """``(n_walks, n_steps + 1)`` ground-truth state sequences."""
        last = self._successors.shape[1] - 1
        out = np.empty((n_walks, n_steps + 1), dtype=np.int64)
        out[:, 0] = rng.integers(self.coords.shape[0], size=n_walks)
        for step in range(n_steps):
            here = out[:, step]
            pick = (rng.random(n_walks)[:, None] > self._cdf[here]).sum(axis=1)
            out[:, step + 1] = self._successors[here, np.minimum(pick, last)]
        return out


def thin(t_start: int, walk: np.ndarray, obs_every: int) -> list[tuple[int, int]]:
    """Observations of one walk: every ``obs_every``-th fix plus the last."""
    idx = sorted(set(range(0, walk.size, obs_every)) | {walk.size - 1})
    return [(t_start + i, int(walk[i])) for i in idx]


def spread_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` query points on a jittered grid over ``[10, 90]^2``.

    Standing queries placed uniformly at random cover the space unevenly,
    and how many objects a handful of them keeps alive in the filter — hence
    how much work every tick does — then swings by a third from seed to
    seed.  One point per grid cell keeps the seeds comparable; the cell
    order is shuffled so that query kind and position stay unrelated.
    """
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    cells = rng.permutation(cols * rows)[:n]
    size = np.array([80.0 / cols, 80.0 / rows])
    corner = np.stack([cells % cols, cells // cols], axis=1) * size + 10.0
    return corner + rng.uniform(0.15, 0.85, size=(n, 2)) * size
