"""Nearest-neighbor statistics over sampled possible worlds.

After the a-posteriori sampler materializes possible worlds (one certain
trajectory per object), the probabilistic queries reduce to counting: the
fraction of worlds in which object ``o`` is the NN of ``q`` at every / some
time of ``T`` estimates ``P∀NN`` / ``P∃NN`` (Section 5.2.3).  These
functions operate on a distance tensor

``dist[w, o, t] = d(q(t), o(t))`` in world ``w``,

with ``np.inf`` marking objects that are not alive at ``t`` (outside their
observation span).  Ties use ``<=`` per Definitions 1-2: all co-located
closest objects count as nearest neighbors.

Memory order.  The shape is ``(worlds, objects, times)`` whoever calls, but
the engine hands in a transposed view of an ``(objects, times, worlds)``
block (``QueryEngine.distance_tensor``): every function here is built from
elementwise operations and axis reductions only, which numpy runs in the
operand's own memory order, so indicators come out world-minor too and the
reductions over objects and tics run unit-stride over the worlds.  A plain
C-ordered tensor gives the same answers, slower.

Two tie rules, one predicate.  For ``k = 1`` the ∀/∃ estimators go through
:func:`knn_indicator` — the exact rule ``d <= min`` — while PCNN mining
goes through :func:`nn_indicator`, which admits a relative slack
(``d <= min · (1 + 1e-12)``).  Distances of co-located objects are the
same double (one per-(tic, state) table entry, or the same arithmetic on
the same coordinates), so the two coincide unless two *different* states
lie within 1e-12 relative distance of the query; they agree on every
shipped fixture (``tests/core/test_refine_layout.py`` pins that) and
neither rule is changed here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "nn_indicator",
    "knn_indicator",
    "nn_prob_per_time",
    "forall_nn_prob",
    "exists_nn_prob",
    "forall_knn_prob",
    "exists_knn_prob",
    "forall_prob_over_times",
    "reverse_knn_indicator",
    "reverse_forall_knn_prob",
    "reverse_exists_knn_prob",
]

_TIE_RTOL = 1e-12


def _validate(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 3:
        raise ValueError(f"distance tensor must be (worlds, objects, times), got {dist.shape}")
    return dist


def nn_indicator(dist: np.ndarray) -> np.ndarray:
    """Boolean tensor: is object ``o`` a nearest neighbor at ``(w, t)``?

    An object is NN when its distance equals the minimum over all alive
    objects; at times where no object is alive nobody is NN.
    """
    dist = _validate(dist)
    best = dist.min(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        is_nn = dist <= best * (1.0 + _TIE_RTOL)
    return is_nn & np.isfinite(dist)


def knn_indicator(dist: np.ndarray, k: int) -> np.ndarray:
    """Boolean tensor: is object ``o`` among the k nearest at ``(w, t)``?

    Object ``o`` qualifies when fewer than ``k`` alive objects are strictly
    closer (the natural ``<=``-tie extension of Section 8).  Fewer than
    ``k`` strictly closer is exactly ``d <= k-th smallest distance`` (ties
    included on both sides), so one ``np.partition`` per ``(w, t)`` column
    replaces the quadratic all-pairs comparison — O(W·O·T) instead of
    O(W·O²·T), the difference between milliseconds and seconds at the
    paper's candidate scales (Figs. 8, 13) — with bit-identical output
    (pure comparisons, no arithmetic on the distances).  For ``k = 1`` the
    k-th smallest is the minimum: a ``min`` across the objects, the same
    booleans without the partition's copy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = _validate(dist)
    if k >= dist.shape[1]:
        # Fewer alive objects than k: everyone alive qualifies.
        return np.isfinite(dist)
    if k == 1:
        kth = dist.min(axis=1, keepdims=True)
    else:
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k, :]
    return (dist <= kth) & np.isfinite(dist)


def nn_prob_per_time(dist: np.ndarray) -> np.ndarray:
    """``P(o is NN of q at t)`` estimates, shape ``(objects, times)``."""
    return nn_indicator(dist).mean(axis=0)


def forall_nn_prob(dist: np.ndarray) -> np.ndarray:
    """``P∀NN(o, q, D, T)`` estimates over all times of the tensor."""
    return nn_indicator(dist).all(axis=2).mean(axis=0)


def exists_nn_prob(dist: np.ndarray) -> np.ndarray:
    """``P∃NN(o, q, D, T)`` estimates over all times of the tensor."""
    return nn_indicator(dist).any(axis=2).mean(axis=0)


def forall_knn_prob(dist: np.ndarray, k: int) -> np.ndarray:
    """``P∀kNN`` estimates (Section 8)."""
    return knn_indicator(dist, k).all(axis=2).mean(axis=0)


def exists_knn_prob(dist: np.ndarray, k: int) -> np.ndarray:
    """``P∃kNN`` estimates (Section 8)."""
    return knn_indicator(dist, k).any(axis=2).mean(axis=0)


def reverse_knn_indicator(
    dist: np.ndarray, object_dist: np.ndarray, k: int
) -> np.ndarray:
    """Boolean tensor: is the *query* among object ``o``'s k nearest at ``(w, t)``?

    The reverse direction of :func:`knn_indicator`: instead of ranking the
    objects around the query, each object ranks the query against its
    *other-object* competitors.  ``dist[w, o, t]`` is the query distance as
    everywhere else; ``object_dist[w, a, o, t]`` is the inter-object
    distance ``d(a(t), o(t))`` with ``np.inf`` on the diagonal and wherever
    either endpoint is dead.  The query is in ``o``'s kNN set iff fewer
    than ``k`` alive competitors are *strictly* closer to ``o`` than the
    query is — the mirror of the forward rule, so a certain database with
    ``k=1`` makes this exactly the membership test "``q`` is ``o``'s NN".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    dist = _validate(dist)
    object_dist = np.asarray(object_dist, dtype=float)
    if object_dist.ndim != 4 or object_dist.shape != (
        dist.shape[0],
        dist.shape[1],
        dist.shape[1],
        dist.shape[2],
    ):
        raise ValueError(
            "object distance tensor must be (worlds, objects, objects, times) "
            f"matching dist {dist.shape}, got {object_dist.shape}"
        )
    # closer[w, o, t] = #{a alive : d(a, o) < d(q, o)}; dead competitors and
    # the diagonal carry inf so they never count.
    with np.errstate(invalid="ignore"):
        closer = (object_dist < dist[:, None, :, :]).sum(axis=1)
    return (closer < k) & np.isfinite(dist)


def reverse_forall_knn_prob(
    dist: np.ndarray, object_dist: np.ndarray, k: int
) -> np.ndarray:
    """``P(∀t ∈ T: q ∈ kNN(o, t))`` estimates per object (reverse P∀kNN)."""
    return reverse_knn_indicator(dist, object_dist, k).all(axis=2).mean(axis=0)


def reverse_exists_knn_prob(
    dist: np.ndarray, object_dist: np.ndarray, k: int
) -> np.ndarray:
    """``P(∃t ∈ T: q ∈ kNN(o, t))`` estimates per object (reverse P∃kNN)."""
    return reverse_knn_indicator(dist, object_dist, k).any(axis=2).mean(axis=0)


def forall_prob_over_times(indicator: np.ndarray, time_columns: np.ndarray) -> float:
    """``P∀NN`` over a timestamp subset, from one object's indicator matrix.

    ``indicator`` has shape ``(worlds, times)``; ``time_columns`` selects the
    subset ``T_i ⊆ T`` (column indices).  This is the estimator Algorithm 1
    defines per Apriori candidate — all candidates share one world pool,
    which preserves the anti-monotonicity the algorithm relies on.
    :mod:`repro.core.apriori` computes the same number from packed world
    bitmaps (``popcount(AND of the columns) / worlds``); this direct form
    is the oracle its tests compare against.
    """
    indicator = np.asarray(indicator, dtype=bool)
    if indicator.ndim != 2:
        raise ValueError("indicator must be (worlds, times)")
    cols = np.asarray(time_columns, dtype=np.intp)
    if cols.size == 0:
        raise ValueError("time subset must be non-empty")
    return float(indicator[:, cols].all(axis=1).mean())
