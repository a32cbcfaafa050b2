"""Shared fixtures: small hand-checkable databases and random mini-worlds."""

import numpy as np
import pytest
from scipy import sparse

from repro.markov.chain import MarkovChain
from repro.statespace.base import StateSpace
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def make_drift_chain(n=4):
    """``i -> {i, i+1}`` with 50/50 splits, last state absorbing."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        mat[i, i] = 0.5
        mat[i, i + 1] = 0.5
    mat[n - 1, n - 1] = 1.0
    return MarkovChain(sparse.csr_matrix(mat))


def make_line_space(n=4, spacing=1.0):
    coords = np.stack([np.arange(n) * spacing, np.zeros(n)], axis=1)
    return StateSpace(coords)


def make_random_world(
    seed: int,
    n_states: int = 8,
    n_objects: int = 3,
    span: int = 6,
    obs_every: int = 3,
    density: float = 0.45,
):
    """A random connected mini-world with observation-consistent objects.

    Objects are materialized by walking the chain, so their observations
    are always feasible; the full walk is retained as ground truth.
    """
    rng = np.random.default_rng(seed)
    mat = rng.uniform(size=(n_states, n_states))
    mask = rng.uniform(size=(n_states, n_states)) < density
    np.fill_diagonal(mask, True)
    mat = mat * mask
    mat /= mat.sum(axis=1, keepdims=True)
    chain = MarkovChain(sparse.csr_matrix(mat))
    coords = rng.uniform(0, 10, size=(n_states, 2))
    space = StateSpace(coords)
    db = TrajectoryDatabase(space, chain)

    for i in range(n_objects):
        walk = [int(rng.integers(n_states))]
        for _ in range(span):
            nxt, probs = chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        truth = Trajectory(0, np.asarray(walk))
        db.add_object(f"o{i}", truth.observe_every(obs_every), ground_truth=truth)
    return db, rng


def make_paper_example_db():
    """Example 1 / Figure 1 of the paper: two objects on four line states.

    ``dist(q, s1) < dist(q, s2) < dist(q, s3) < dist(q, s4)`` for the query
    at the origin; exact results are known in closed form (P∀NN(o1) = 0.75,
    P∃NN(o2) = 0.25, …), which makes this the canonical topology for golden
    files and statistical cross-validation.
    """
    coords = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
    space = StateSpace(coords)
    identity = MarkovChain(sparse.identity(4, format="csr"))

    # o1: observed at s2 (t=1); branches to {s1, s3}; from s3 again {s1, s3}.
    m1 = MarkovChain(
        sparse.csr_matrix(
            np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.5, 0.0, 0.5, 0.0],
                    [0.5, 0.0, 0.5, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
    )
    # o2: observed at s3 (t=1); branches to {s2, s4}; then stays.
    m2 = MarkovChain(
        sparse.csr_matrix(
            np.array(
                [
                    [1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.5, 0.0, 0.5],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
    )
    db = TrajectoryDatabase(space, identity)
    db.add_object("o1", [(1, 1)], chain=m1, extend_to=3)
    db.add_object("o2", [(1, 2)], chain=m2, extend_to=3)
    return db


@pytest.fixture
def drift_db():
    """Two drifting objects on a line — small enough for exact checks."""
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    db.add_object("b", [(0, 1), (4, 3)])
    return db


@pytest.fixture
def unchecked_reachability(monkeypatch):
    """Switch off the ingest-time reachability check
    (``TrajectoryDatabase.check_reachable``), so a contradicting fix lands
    and what adaptation does with one — the defence behind the check — can
    be tested."""
    monkeypatch.setattr(TrajectoryDatabase, "check_reachable", lambda *args: None)
