"""Result containers for the probabilistic query engine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EvaluationReport",
    "ObjectProbability",
    "PCNNEntry",
    "QueryResult",
    "PCNNResult",
    "RawProbabilities",
    "ReverseNNResult",
]


@dataclass
class EvaluationReport:
    """Observability record of one ``QueryEngine.evaluate`` run.

    Every result of the staged pipeline carries one; ``explain()`` returns
    the same structure as a *skeleton* (``executed=False``, zero timings,
    empty per-object assignments) so a serving layer can inspect what a
    request would cost before running it.

    ``estimator_by_object`` records how each *reported value* was
    obtained: ``"sampled"``/``"adaptive"`` (Monte-Carlo refinement),
    ``"exact"`` (world enumeration), ``"bounds:accepted"`` /
    ``"bounds:rejected"`` (conclusive Lemma 2 bounds — the stored value is
    then a *certified* lower/upper bound, not an estimate, so result
    ordering among bound-decided objects is by bound value, not true
    probability).  ``undecided`` lists objects a pure-``bounds`` run could
    not settle (the hybrid estimator estimates exactly these).
    ``sampled_objects`` counts influence objects drawn into worlds — the
    refinement *cost* — which on a hybrid run exceeds the number of
    ``"sampled"``-tagged candidates (every competitor must be drawn to
    estimate one undecided candidate).  Cache counters are deltas over
    this evaluation, matching the engine's
    :class:`~repro.core.worlds.WorldCache` accounting.
    """

    estimator: str
    resolved_estimator: str
    mode: str
    n_samples: int
    epsilon: float | None
    delta: float | None
    n_candidates: int
    n_influencers: int
    examined_entries: int
    # kNN depth of the request (defaulted so hand-built reports stay valid).
    k: int = 1
    # Execution-only fields default to skeleton values so explain() only
    # fills in what planning and filtering actually determine.
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {
            "plan": 0.0, "filter": 0.0, "estimate": 0.0, "threshold": 0.0
        }
    )
    sampled_objects: int = 0
    bounds_decided: int = 0
    undecided: tuple[str, ...] = ()
    estimator_by_object: dict[str, str] = field(default_factory=dict)
    cache_hits: int = 0
    cache_partial_hits: int = 0
    cache_misses: int = 0
    notes: tuple[str, ...] = ()
    executed: bool = True

    @property
    def total_seconds(self) -> float:
        """Wall-clock total across the recorded stages."""
        return float(sum(self.stage_seconds.values()))

    def as_dict(self) -> dict:
        """JSON-ready form (stage timings included; they are floats)."""
        return {
            "estimator": self.estimator,
            "resolved_estimator": self.resolved_estimator,
            "mode": self.mode,
            "k": self.k,
            "n_samples": self.n_samples,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "stage_seconds": dict(self.stage_seconds),
            "n_candidates": self.n_candidates,
            "n_influencers": self.n_influencers,
            "examined_entries": self.examined_entries,
            "sampled_objects": self.sampled_objects,
            "bounds_decided": self.bounds_decided,
            "undecided": list(self.undecided),
            "estimator_by_object": dict(self.estimator_by_object),
            "cache_hits": self.cache_hits,
            "cache_partial_hits": self.cache_partial_hits,
            "cache_misses": self.cache_misses,
            "notes": list(self.notes),
            "executed": self.executed,
        }


@dataclass(frozen=True)
class ObjectProbability:
    """One qualifying object with its estimated probability."""

    object_id: str
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.probability}")


@dataclass(frozen=True)
class PCNNEntry:
    """A PCNN answer element ``(o, T_i)`` with ``P∀NN(o, q, D, T_i) ≥ τ``."""

    object_id: str
    times: tuple[int, ...]
    probability: float

    def __post_init__(self) -> None:
        if list(self.times) != sorted(set(self.times)):
            raise ValueError("times must be sorted and duplicate-free")

    @classmethod
    def mined(cls, object_id: str, times: tuple[int, ...], probability: float) -> "PCNNEntry":
        """An entry of a miner's set over sorted unique query times —
        sorted and duplicate-free by construction, so the check is skipped
        (a PCNN op builds hundreds of entries)."""
        entry = object.__new__(cls)
        entry.__dict__.update(object_id=object_id, times=times, probability=probability)
        return entry

    def runs(self) -> list[tuple[int, int]]:
        """Contiguous runs of the timestamp set.

        Definition 3 allows disconnected ``T_i``; this splits one into
        maximal consecutive intervals, e.g. ``(1,2,3,7,8) -> [(1,3), (7,8)]``.
        """
        out: list[tuple[int, int]] = []
        start = prev = self.times[0]
        for t in self.times[1:]:
            if t == prev + 1:
                prev = t
                continue
            out.append((start, prev))
            start = prev = t
        out.append((start, prev))
        return out

    def format_times(self) -> str:
        """Compact human-readable form, e.g. ``"1-3,7-8"`` or ``"5"``."""
        parts = []
        for lo, hi in self.runs():
            parts.append(str(lo) if lo == hi else f"{lo}-{hi}")
        return ",".join(parts)


@dataclass
class QueryResult:
    """Outcome of a P∃NNQ / P∀NNQ evaluation.

    ``results`` holds objects passing the threshold τ, sorted by descending
    probability; ``probabilities`` additionally keeps every refined object's
    estimate (useful for calibration studies and τ=0 experiments).
    """

    results: list[ObjectProbability]
    probabilities: dict[str, float]
    candidates: list[str]
    influencers: list[str]
    n_samples: int
    times: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    #: Pipeline observability record (None for hand-built results).
    report: EvaluationReport | None = None

    @property
    def n_candidates(self) -> int:
        """|C(q)| — the paper's candidate-count metric."""
        return len(self.candidates)

    @property
    def n_influencers(self) -> int:
        """|I(q)| — the paper's influence-object metric."""
        return len(self.influencers)

    def probability_of(self, object_id: str) -> float:
        """Estimated probability for a refined object (0.0 if pruned)."""
        return self.probabilities.get(str(object_id), 0.0)

    def object_ids(self) -> list[str]:
        return [r.object_id for r in self.results]


@dataclass
class PCNNResult:
    """Outcome of a PCNNQ evaluation."""

    entries: list[PCNNEntry]
    candidates: list[str]
    influencers: list[str]
    n_samples: int
    #: Total candidate timestamp sets evaluated across all objects — the
    #: "#Timestamp Sets" series of Figs. 13-14.
    sets_evaluated: int = 0
    #: Pipeline observability record (None for hand-built results).
    report: EvaluationReport | None = None

    def entries_for(self, object_id: str) -> list[PCNNEntry]:
        return [e for e in self.entries if e.object_id == str(object_id)]

    def maximal_entries(self) -> list[PCNNEntry]:
        """Condense to maximal timestamp sets per object (Definition 3's
        refined form): drop every set contained in a larger qualifying set
        of the same object."""
        out: list[PCNNEntry] = []
        by_object: dict[str, list[PCNNEntry]] = {}
        for entry in self.entries:
            by_object.setdefault(entry.object_id, []).append(entry)
        for object_id, entries in by_object.items():
            sets = [frozenset(e.times) for e in entries]
            for entry, s in zip(entries, sets):
                if not any(s < other for other in sets):
                    out.append(entry)
        return out

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class ReverseNNResult:
    """Outcome of a ``mode="reverse_nn"`` evaluation (reverse P-kNN).

    The transposed question: per object ``o``, the probability that the
    *query* is among ``o``'s ``k`` nearest neighbors.  ``results`` holds
    the objects whose ``P∀`` value (query in their kNN set at *every* time
    of ``T``) passes τ, sorted by descending probability; ``probabilities``
    keeps every refined object's ``P∀`` estimate and ``exists`` the
    companion ``P∃`` values (query in the kNN set at *some* time) from the
    same worlds.
    """

    results: list[ObjectProbability]
    probabilities: dict[str, float]
    exists: dict[str, float]
    candidates: list[str]
    influencers: list[str]
    n_samples: int
    k: int = 1
    times: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    #: Pipeline observability record (None for hand-built results).
    report: EvaluationReport | None = None

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    @property
    def n_influencers(self) -> int:
        return len(self.influencers)

    def probability_of(self, object_id: str) -> float:
        """Estimated ``P∀`` for a refined object (0.0 if pruned)."""
        return self.probabilities.get(str(object_id), 0.0)

    def as_dict(self) -> dict[str, tuple[float, float]]:
        """``oid -> (P∀, P∃)``, mirroring :meth:`RawProbabilities.as_dict`."""
        return {
            oid: (self.probabilities[oid], self.exists[oid])
            for oid in self.probabilities
        }

    def object_ids(self) -> list[str]:
        return [r.object_id for r in self.results]


@dataclass
class RawProbabilities:
    """Outcome of a ``mode="raw"`` evaluation: threshold-free estimates.

    Per refined object, the (P∀kNN, P∃kNN) pair — the calibration access
    path (Fig. 11) that :meth:`QueryEngine.nn_probabilities` exposes as a
    plain dict via :meth:`as_dict`.
    """

    forall: dict[str, float]
    exists: dict[str, float]
    candidates: list[str]
    influencers: list[str]
    n_samples: int
    times: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    #: Pipeline observability record (None for hand-built results).
    report: EvaluationReport | None = None

    def as_dict(self) -> dict[str, tuple[float, float]]:
        """The legacy ``nn_probabilities`` shape: ``oid -> (P∀, P∃)``."""
        return {oid: (self.forall[oid], self.exists[oid]) for oid in self.forall}

    def __len__(self) -> int:
        return len(self.forall)
