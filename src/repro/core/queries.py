"""Query reference objects: a certain state or a certain trajectory.

Section 3.2: all three PNN semantics take "a certain reference state or
trajectory q" — a query state being simply a trivial (constant) query
trajectory.  A :class:`Query` therefore exposes one operation: its location
at each requested time.  :class:`QueryRequest` bundles a query with its
semantics and parameters for the engine's batched API.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..markov.compiled import as_integers
from ..statespace.base import StateSpace
from ..trajectory.observation import as_integer
from ..trajectory.trajectory import Trajectory

__all__ = [
    "ESTIMATOR_NAMES",
    "QUERY_MODES",
    "Query",
    "QueryRequest",
    "check_count",
    "normalize_times",
    "union_window",
]

#: Query semantics the engine evaluates: P∀kNNQ, P∃kNNQ, PCkNNQ, the
#: threshold-free ``"raw"`` form returning per-object (P∀kNN, P∃kNN) pairs
#: (the calibration access path of ``nn_probabilities``), and the reverse
#: direction ``"reverse_nn"`` — which objects have *the query* among their
#: k likely nearest neighbors (RkNN over possible worlds).
QUERY_MODES = ("forall", "exists", "pcnn", "raw", "reverse_nn")

#: Estimation strategies the planner accepts (the strategy classes live in
#: :mod:`repro.core.estimators`; ``tests`` assert the registry matches).
ESTIMATOR_NAMES = ("sampled", "exact", "bounds", "hybrid", "adaptive")


def check_count(name: str, value, minimum: int = 1, why: str = "") -> int:
    """``value`` as an ``int``, or a ``ValueError`` naming it: counts (a kNN
    depth, a world count, a cache capacity) must be integral — bools are
    ints but ``k=True`` is a bug, and a fractional count would silently
    truncate — and ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r} "
            f"(type {type(value).__name__})"
        )
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}{why}")
    return int(value)


def normalize_times(times) -> np.ndarray:
    """Canonical form of a query time set ``T``: sorted unique int array
    (a fractional or non-finite time is refused, never truncated)."""
    if not isinstance(times, np.ndarray):
        times = list(times)
    arr = np.unique(as_integers("query times", times))
    if arr.size == 0:
        raise ValueError("query time set T must be non-empty")
    return arr


def union_window(requests) -> tuple[int, int]:
    """``[t_lo, t_hi]`` covering every request's time set.

    This is the window a batch samples worlds over (window-restricted
    refinement): per-query time sets are slices of it, so one draw per
    object serves the whole batch no matter how the windows overlap.
    """
    t_lo: int | None = None
    t_hi: int | None = None
    for req in requests:
        lo, hi = req.window
        t_lo = lo if t_lo is None else min(t_lo, lo)
        t_hi = hi if t_hi is None else max(t_hi, hi)
    if t_lo is None or t_hi is None:
        raise ValueError("batch contains no query times")
    return int(t_lo), int(t_hi)


class Query:
    """A certain spatio-temporal reference for PNN queries.

    Construct via :meth:`from_state`, :meth:`from_point` or
    :meth:`from_trajectory`.
    """

    def __init__(self, kind: str, coords_at) -> None:
        self._kind = kind
        self._coords_at = coords_at

    # ------------------------------------------------------------------
    @classmethod
    def from_state(cls, space: StateSpace, state: int) -> "Query":
        """A static query at a state of the space (e.g. the bank's location)."""
        if not 0 <= state < space.n_states:
            raise ValueError(f"state {state} outside state space")
        point = space.coords[state].copy()

        def coords_at(times: np.ndarray) -> np.ndarray:
            return np.tile(point, (len(times), 1))

        return cls("state", coords_at)

    @classmethod
    def from_point(cls, coords) -> "Query":
        """A static query at an arbitrary location of ``R^d``."""
        point = np.asarray(coords, dtype=float)
        if point.ndim != 1:
            raise ValueError("query point must be a 1-d coordinate array")

        def coords_at(times: np.ndarray) -> np.ndarray:
            return np.tile(point, (len(times), 1))

        return cls("point", coords_at)

    @classmethod
    def from_coords(cls, coords) -> "Query":
        """A query given by precomputed per-time coordinates (one row each).

        The table must cover exactly the times the query is evaluated at,
        in call order.  This is the wire form of a query: the serving
        layer evaluates ``coords_at`` once coordinator-side and ships the
        resulting array to shard workers instead of pickling closures.
        """
        table = np.asarray(coords, dtype=float)
        if table.ndim != 2:
            raise ValueError("coords table must be 2-d (times x dims)")

        def coords_at(times: np.ndarray) -> np.ndarray:
            if len(times) != len(table):
                raise ValueError(
                    f"coords table covers {len(table)} times, "
                    f"got {len(times)}"
                )
            return table

        return cls("table", coords_at)

    @classmethod
    def from_trajectory(cls, trajectory: Trajectory, space: StateSpace) -> "Query":
        """A moving query following a certain trajectory (e.g. the robbers' car)."""

        def coords_at(times: np.ndarray) -> np.ndarray:
            times = np.asarray(times, dtype=np.intp)
            return space.coords_of(trajectory.states_at(times))

        return cls("trajectory", coords_at)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        return self._kind

    def coords_at(self, times: np.ndarray) -> np.ndarray:
        """Query locations, one row per requested time."""
        out = self._coords_at(np.asarray(times, dtype=np.intp))
        return np.asarray(out, dtype=float)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Query(kind={self._kind!r})"


@dataclass(frozen=True)
class QueryRequest:
    """One self-contained query for ``QueryEngine.evaluate`` (and batches).

    ``mode`` selects the semantics: ``"forall"`` (P∀kNNQ), ``"exists"``
    (P∃kNNQ), ``"pcnn"`` (PCkNNQ — where ``tau`` is required to be
    meaningful, exactly as in :meth:`QueryEngine.continuous_nn`),
    ``"raw"`` (threshold-free per-object (P∀kNN, P∃kNN) estimates, the
    :meth:`QueryEngine.nn_probabilities` access path) or ``"reverse_nn"``
    (reverse probabilistic kNN: per object, the probability that the
    *query* is among the object's ``k`` nearest neighbors — at every time
    of ``T`` for the primary value, at some time for the secondary).

    ``k`` is the kNN depth shared by every mode (forward modes ask for
    membership in the query's k-nearest set, reverse mode for the query's
    membership in each object's k-nearest set).  It must be an integral
    value ``>= 1``; whether it also fits the evaluated database — ``k``
    may not exceed the filter stage's competitor pool — is checked by
    :meth:`QueryEngine.evaluate`, which knows the candidate counts.

    ``estimator`` picks the estimation strategy of the refinement stage
    (see :mod:`repro.core.estimators`); ``precision=(epsilon, delta)``
    states the Hoeffding target — required by ``estimator="adaptive"``
    (which sizes ``n_samples`` from it) and otherwise used to report the
    achieved confidence radius.  ``n_samples`` overrides the engine's
    per-query world count.  The trailing fields carry the PCNN mining
    options of :meth:`QueryEngine.continuous_nn` and the enumeration
    budgets of the ``"exact"`` estimator, so a request serializes the
    *complete* query.
    """

    query: Query
    times: tuple[int, ...]
    mode: str = "forall"
    tau: float = 0.0
    k: int = 1
    estimator: str = "sampled"
    precision: tuple[float, float] | None = None
    n_samples: int | None = None
    max_candidates: int = 100_000
    use_certain_shortcut: bool = False
    maximal_only: bool = False
    max_worlds: int = 1_000_000
    max_paths: int = 100_000

    def __post_init__(self) -> None:
        if self.mode not in QUERY_MODES:
            raise ValueError(f"unknown query mode {self.mode!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        # Mirror the empty-times check below: reject nonsense up front with
        # a descriptive message instead of letting it reach the kernels.
        why = " (the kNN depth counts nearest neighbors; there is no 0-th nearest neighbor)"
        object.__setattr__(self, "k", check_count("k", self.k, why=why))
        times = tuple(as_integer("time", t) for t in self.times)
        if not times:
            raise ValueError("query time set T must be non-empty")
        object.__setattr__(self, "times", times)
        if self.estimator not in ESTIMATOR_NAMES:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; "
                f"expected one of {ESTIMATOR_NAMES}"
            )
        if self.precision is not None:
            try:
                epsilon, delta = self.precision
                epsilon, delta = float(epsilon), float(delta)
            except (TypeError, ValueError):
                raise ValueError(
                    "precision must be a numeric (epsilon, delta) pair"
                ) from None
            if not 0.0 < epsilon < 1.0:
                raise ValueError("precision epsilon must be in (0, 1)")
            if not 0.0 < delta < 1.0:
                raise ValueError("precision delta must be in (0, 1)")
            object.__setattr__(self, "precision", (epsilon, delta))
        elif self.estimator == "adaptive":
            raise ValueError(
                "estimator='adaptive' requires precision=(epsilon, delta)"
            )
        if self.n_samples is not None:
            object.__setattr__(self, "n_samples", check_count("n_samples", self.n_samples))
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if self.max_worlds < 1 or self.max_paths < 1:
            raise ValueError("enumeration budgets must be positive")

    @property
    def window(self) -> tuple[int, int]:
        """``[t_lo, t_hi]`` hull of this request's (non-empty) time set."""
        return min(self.times), max(self.times)
