"""The worlds and request shapes the differential tests share."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.core.queries import Query, QueryRequest
from repro.markov import native
from repro.markov.chain import InhomogeneousMarkovChain, MarkovChain
from repro.spatial.ust_tree import USTTree
from repro.statespace.base import StateSpace
from repro.stream.ingest import AddObject, AddObservation, ObservationStream, RemoveObject
from repro.trajectory.database import TrajectoryDatabase
from tests.conftest import (
    make_drift_chain,
    make_line_space,
    make_paper_example_db,
    make_random_world,
)


#: The sampling backends a sampler-touching case runs on: the default and,
#: where the C tier builds, ``"native"`` (skipped elsewhere).
BACKENDS = [
    "compiled",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.available(),
            reason=f"native tier unavailable ({native.unavailable_reason()})",
        ),
    ),
]


def _drift_db():
    db = TrajectoryDatabase(make_line_space(4), make_drift_chain())
    db.add_object("a", [(0, 0), (4, 2)])
    db.add_object("b", [(0, 1), (4, 3)])
    return db


def _random_db():
    db, _ = make_random_world(
        seed=3, n_states=6, n_objects=2, span=4, obs_every=2
    )
    return db


#: name -> (db builder, query, query times): worlds small enough for the
#: enumeration oracles of ``repro.core.exact``.  Times are strict
#: sub-windows of the object spans wherever the topology allows, so a draw
#: over the requested window genuinely samples less than the full span.
TOPOLOGIES = {
    "drift": (_drift_db, lambda: Query.from_point([0.0, 0.0]), (1, 2, 3)),
    "paper": (make_paper_example_db, lambda: Query.from_point([0.0, 0.0]), (2, 3)),
    "random": (_random_db, lambda: Query.from_point([5.0, 5.0]), (1, 2, 3)),
}


def staggered_db():
    """Seven objects: four over tics 0–12, a twin of the first (same fixes,
    so the two are sampled into one state wherever they are observed —
    exact ties), one early (0–5) and one late (6–14) mover."""
    db, rng = make_random_world(seed=31, n_states=12, n_objects=4, span=12, obs_every=4)
    first = db.get("o0")
    db.add_object("twin", first.observations.as_pairs())
    for name, start, length in (("early", 0, 5), ("late", 6, 8)):
        walk = [int(rng.integers(db.space.n_states))]
        for _ in range(length):
            nxt, probs = db.chain.successors(walk[-1], 0)
            walk.append(int(rng.choice(nxt, p=probs)))
        db.add_object(
            name, [(start + i, walk[i]) for i in range(0, length + 1, length)]
        )
    return db


STAGGERED_IDS = ["o0", "o1", "o2", "o3", "twin", "early", "late"]

#: name -> (object ids, times) over :func:`staggered_db`.
REQUEST_SHAPES = {
    "full_grid": (["o0", "o1", "o2", "o3", "twin"], (3, 4, 5, 6, 7)),
    "partly_alive": (STAGGERED_IDS, (3, 4, 5, 6, 7, 8)),
    "single_tic": (STAGGERED_IDS, (4,)),
    "sparse_times": (STAGGERED_IDS, (1, 4, 8, 11)),
    "duplicate_id": (["o0", "late", "o1", "o0"], (4, 5, 6, 7)),
    "all_dead_tic": (STAGGERED_IDS, (11, 12, 13, 14, 20)),
    "nobody_alive": (STAGGERED_IDS, (20, 21)),
}


# ----------------------------------------------------------------------
# a database under a seeded stream of mutations
# ----------------------------------------------------------------------
N_STATES = 14
T_MIN, T_MAX = -4, 18


def _random_matrix(rng, density=0.3):
    mat = rng.uniform(size=(N_STATES, N_STATES))
    mask = rng.uniform(size=(N_STATES, N_STATES)) < density
    np.fill_diagonal(mask, True)
    mat = mat * mask
    return sparse.csr_matrix(mat / mat.sum(axis=1, keepdims=True))


class MutatingWorld:
    """A database under a seeded stream of mutations.

    Every object follows a hidden walk of its own chain over
    ``[T_MIN, T_MAX]``, so any subset of the walk's tics is a feasible
    observation history: fixes can be appended at the head, slipped in
    between two fixes or placed before the first one.
    """

    def __init__(self, seed: int) -> None:
        self.rng = rng = np.random.default_rng(seed)
        self.space = StateSpace(rng.uniform(0, 10, size=(N_STATES, 2)))
        default = MarkovChain(_random_matrix(rng))
        self.chains = {
            "default": None,
            "own": MarkovChain(_random_matrix(rng)),
            "inhomogeneous": InhomogeneousMarkovChain(
                {t: _random_matrix(rng) for t in range(T_MIN, T_MAX, 2)},
                default=_random_matrix(rng),
            ),
        }
        self.db = TrajectoryDatabase(self.space, default)
        self.stream = ObservationStream(self.db)
        self.walks: dict[str, dict[int, int]] = {}
        self.tree = USTTree(self.db)
        self._tree_seen = self.db.version
        self.generation = 0

    def _walk(self, chain) -> dict[int, int]:
        chain = chain or self.db.chain
        state = int(self.rng.integers(N_STATES))
        walk = {T_MIN: state}
        for t in range(T_MIN, T_MAX):
            nxt, probs = chain.successors(state, t)
            state = int(self.rng.choice(nxt, p=probs))
            walk[t + 1] = state
        return walk

    def add_event(self, object_id: str) -> AddObject:
        kind = ("default", "own", "inhomogeneous")[int(self.rng.integers(3))]
        chain = self.chains[kind]
        walk = self.walks[object_id] = self._walk(chain)
        first = int(self.rng.integers(0, 6))
        times = sorted({first, *(int(t) for t in self.rng.integers(first, 10, size=3))})
        extend_to = None
        if self.rng.uniform() < 0.5:
            extend_to = times[-1] + int(self.rng.integers(1, 5))
        return AddObject(
            object_id, [(t, walk[t]) for t in times], chain=chain, extend_to=extend_to
        )

    def observation_event(self, object_id: str) -> AddObservation | None:
        """A head append, an interior refinement or a fix before the first one."""
        obj = self.db.get(object_id)
        seen = set(obj.observations.times)
        first, last = obj.observations.first.time, obj.observations.last.time
        choices = {
            "head": [t for t in range(last + 1, min(last + 5, T_MAX) + 1)],
            "interior": [t for t in range(first + 1, last) if t not in seen],
            "before": [t for t in range(max(first - 3, T_MIN), first)],
        }
        kinds = [k for k, ts in choices.items() if ts]
        if not kinds:
            return None
        ts = choices[kinds[int(self.rng.integers(len(kinds)))]]
        t = int(ts[int(self.rng.integers(len(ts)))])
        return AddObservation(object_id, t, self.walks[object_id][t])

    def random_event(self):
        ids = self.db.object_ids
        roll = self.rng.uniform()
        if len(ids) < 3 or roll < 0.12:
            # New ids and re-used ids of removed objects alike.
            gone = sorted(set(self.walks) - set(ids))
            if gone and self.rng.uniform() < 0.6:
                return self.add_event(gone[0])
            self.generation += 1
            return self.add_event(f"o{self.generation}")
        object_id = ids[int(self.rng.integers(len(ids)))]
        if roll < 0.22:
            return RemoveObject(object_id)
        return self.observation_event(object_id)

    def apply(self, event) -> None:
        self.stream.apply([event])

    def sync_tree(self) -> None:
        """What ``QueryEngine.sync_mutations`` does to its index."""
        for oid in sorted(self.db.changed_since(self._tree_seen)):
            self.tree.update_object(oid)
        self._tree_seen = self.db.version

    def requests(self):
        points = ([5.0, 5.0], [2.0, 7.5])
        return [
            QueryRequest(Query.from_point(points[0]), (3, 4, 5, 6), "forall", 0.05),
            QueryRequest(Query.from_point(points[1]), (6, 7, 8), "exists", 0.1),
            QueryRequest(Query.from_point(points[0]), (2, 4, 6, 8), "pcnn", 0.2),
            QueryRequest(Query.from_point(points[1]), (8, 9, 10, 11), "raw"),
        ]
