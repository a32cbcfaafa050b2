"""repro — Probabilistic NN queries on uncertain moving object trajectories.

A from-scratch reproduction of Niedermayer, Züfle, Emrich, Renz, Mamoulis,
Chen, Kriegel: "Probabilistic Nearest Neighbor Queries on Uncertain Moving
Object Trajectories", PVLDB 7(3), 2013.

Public API tour
---------------
* Model a discrete world: :class:`StateSpace`, :class:`MarkovChain`
  (or generate one: :func:`build_synthetic_space`, :func:`build_grid_space`,
  :func:`build_city_network`).
* Store uncertain objects: :class:`TrajectoryDatabase`,
  :class:`ObservationSet`, :class:`Trajectory`.
* Query: :class:`QueryEngine` with :class:`Query` references —
  ``evaluate(request)`` runs the staged pipeline (plan → filter →
  estimate → threshold) with pluggable estimators
  (``sampled``/``exact``/``bounds``/``hybrid``/``adaptive``);
  ``evaluate_many`` batches requests over shared worlds; ``explain``
  returns the plan without executing.  The classic entry points —
  ``forall_nn`` (P∀NNQ), ``exists_nn`` (P∃NNQ), ``continuous_nn``
  (PCNNQ), ``nn_probabilities`` — remain as shims, each with optional
  ``k`` (Section 8); ``reverse_nn`` asks the reverse direction (which
  objects have the query among their k likely nearest).
* Classify: :class:`UncertainNNClassifier` turns per-object kNN
  probabilities into label-probability vectors (Angiulli & Fassetti).
* Inspect the machinery: :func:`adapt_model` (Algorithm 2),
  :class:`USTTree` (Section 6 pruning), :mod:`repro.core.exact` oracles,
  :class:`EvaluationReport` on every pipeline result.
* Stream: :class:`ObservationStream` ingests event batches
  (:class:`AddObject` / :class:`AddObservation` / :class:`RemoveObject`)
  with per-object invalidation underneath, and :class:`ContinuousMonitor`
  keeps standing subscriptions (fixed or :class:`SlidingWindow` time
  sets) refreshed with delta notifications per tick.
* Serve: :class:`ServeCoordinator` shards the monitoring workload across
  worker processes (object-id hash → shard views + shared-memory world
  tensors) with notifications and reuse counters bit-identical to a
  single process for any shard count; worker death surfaces as
  :class:`ShardFailure` and ``restart_shard`` resumes bit-identically.
* Observe: :class:`Tracer` records structured span trees for every
  evaluation / monitor tick / serve tick (stitched across worker
  processes), :class:`MetricsRegistry` collects typed counters, gauges
  and latency histograms from every layer, :class:`MetricsServer`
  exposes them over HTTP (Prometheus text + JSON), and
  :class:`SlowQueryLog` keeps the slowest evaluations with their
  explain plans attached.  The default :data:`NULL_TRACER` keeps the
  hot path allocation-free; telemetry never changes result bytes.
"""

from .core.evaluator import QueryEngine
from .core.planner import Explanation, QueryPlan
from .core.queries import (
    ESTIMATOR_NAMES,
    QUERY_MODES,
    Query,
    QueryRequest,
    normalize_times,
)
from .analysis.classification import LabelDistribution, UncertainNNClassifier
from .core.results import (
    EvaluationReport,
    ObjectProbability,
    PCNNEntry,
    PCNNResult,
    QueryResult,
    RawProbabilities,
    ReverseNNResult,
)
from .core.worlds import WorldCache
from .obs import (
    NULL_TRACER,
    MetricsRegistry,
    MetricsServer,
    NullTracer,
    SlowQueryLog,
    Span,
    TraceContext,
    Tracer,
    format_span_tree,
)
from .serve import ServeCoordinator, ShardFailure
from .markov.adaptation import AdaptedModel, ObservationContradictionError, adapt_model
from .markov.chain import InhomogeneousMarkovChain, MarkovChain, uniformized
from .markov.compiled import CompiledModel, compile_model
from .markov.distributions import SparseDistribution
from .spatial.geometry import Rect
from .spatial.ust_tree import USTTree
from .statespace.base import StateSpace
from .stream.ingest import (
    AddObject,
    AddObservation,
    IngestResult,
    ObservationStream,
    RemoveObject,
)
from .stream.monitor import ContinuousMonitor, Notification, TickReport
from .stream.scheduler import SlidingWindow, Subscription
from .statespace.generator import build_synthetic_space
from .statespace.grid import build_grid_space
from .statespace.network import build_city_network
from .trajectory.database import TrajectoryDatabase
from .trajectory.observation import Observation, ObservationSet
from .trajectory.trajectory import Trajectory, UncertainObject

__version__ = "1.7.0"

__all__ = [
    "AdaptedModel",
    "AddObject",
    "AddObservation",
    "CompiledModel",
    "ContinuousMonitor",
    "ESTIMATOR_NAMES",
    "EvaluationReport",
    "Explanation",
    "IngestResult",
    "InhomogeneousMarkovChain",
    "LabelDistribution",
    "MarkovChain",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_TRACER",
    "Notification",
    "NullTracer",
    "Observation",
    "ObservationContradictionError",
    "ObservationSet",
    "ObservationStream",
    "ObjectProbability",
    "PCNNEntry",
    "PCNNResult",
    "QUERY_MODES",
    "Query",
    "QueryEngine",
    "QueryPlan",
    "QueryRequest",
    "QueryResult",
    "RawProbabilities",
    "Rect",
    "RemoveObject",
    "ReverseNNResult",
    "ServeCoordinator",
    "ShardFailure",
    "SlidingWindow",
    "SlowQueryLog",
    "Span",
    "SparseDistribution",
    "StateSpace",
    "Subscription",
    "TickReport",
    "TraceContext",
    "Tracer",
    "Trajectory",
    "TrajectoryDatabase",
    "USTTree",
    "UncertainNNClassifier",
    "UncertainObject",
    "WorldCache",
    "adapt_model",
    "build_city_network",
    "compile_model",
    "format_span_tree",
    "build_grid_space",
    "build_synthetic_space",
    "normalize_times",
    "uniformized",
    "__version__",
]
