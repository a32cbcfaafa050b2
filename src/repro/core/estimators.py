"""Pluggable estimation strategies for the ``evaluate()`` pipeline.

The estimate stage of the pipeline (plan → filter → **estimate** →
threshold) is a strategy object: given the filter stage's candidate and
influence sets, produce per-object probability estimates (or mined PCNN
timestamp sets).  Five strategies ship, selected per request via
``QueryRequest(estimator=...)``:

``"sampled"``
    The paper's Monte-Carlo refinement (Section 5): sample every influence
    object into possible worlds, count.  The default, and the only
    strategy guaranteed bit-identical to the pre-pipeline engine.
``"exact"``
    The possible-world enumeration oracle (:mod:`repro.core.exact`) —
    exponential, budget-guarded, for validation-scale instances.
``"bounds"``
    Decide the P∀NN threshold from the PTIME Lemma 2 domination bounds
    alone (:mod:`repro.core.bounds`), *without sampling*.  Objects whose
    bounds straddle τ stay undecided (reported, not estimated).
``"hybrid"``
    Bounds first, Monte-Carlo only for the undecided rest — the §4.2+§5
    fast path.  When the bounds settle every candidate, refinement is
    skipped entirely (zero objects sampled).
``"adaptive"``
    The sampled strategy with its world count sized by Hoeffding's
    inequality from the request's ``precision=(epsilon, delta)`` target
    (Section 5.2.3) instead of a fixed engine-wide ``n_samples``.

Strategies report *how* each probability was obtained
(``estimator_by_object``) so the :class:`~repro.core.results.
EvaluationReport` can distinguish certified bounds from estimates.

Every sampling strategy reaches refinement through
:meth:`EstimationContext.refinement_distances`, which hands the *whole*
candidate set to the engine as one columnar batch —
that is a single :mod:`~repro.markov.arena` pass plus one distance block
in the sampler's own ``(objects, times, worlds)`` order (handed out as a
``[w, o, t]`` view), which every counting reduction here then streams over
with the worlds as the unit-stride axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..trajectory.nn import (
    forall_knn_prob,
    knn_indicator,
    reverse_knn_indicator,
)
from .apriori import mine_world_masks, world_masks
from .bounds import bounds_partition
from .exact import (
    exact_forall_nn_over_times,
    exact_nn_probabilities,
    exact_reverse_nn_probabilities,
)
from .planner import QueryPlan
from .queries import ESTIMATOR_NAMES, QueryRequest
from .results import PCNNEntry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spatial.ust_tree import PruningResult
    from .evaluator import QueryEngine

__all__ = [
    "ESTIMATORS",
    "EstimationContext",
    "EstimateOutcome",
    "Estimator",
    "SampledEstimator",
    "ExactEstimator",
    "BoundsEstimator",
    "HybridEstimator",
    "AdaptiveEstimator",
    "make_estimator",
]


@dataclass
class EstimationContext:
    """Everything an estimator may consult: engine, request, filter output.

    ``times`` is the canonical normalized array; ``result_ids`` the objects
    eligible to appear in the final result (candidates for P∀NN, influence
    objects otherwise); ``refine_ids`` the influence objects that would
    need sampling.
    """

    engine: "QueryEngine"
    request: QueryRequest
    plan: QueryPlan
    times: np.ndarray
    pruning: "PruningResult"
    result_ids: list[str]
    refine_ids: list[str]

    def refinement_distances(self, n_samples: int | None = None) -> np.ndarray:
        """One shared world draw over the whole refine set.

        The single entry point every sampling strategy uses to reach the
        engine's refinement kernel: the candidate set goes down as one
        columnar batch (one fused arena pass + one row-gather distance
        kernel) rather than per-object calls, so
        strategies cannot accidentally fall off the bulk path.

        Shared-world (batched) evaluations may be served
        from the engine's refinement tensor cache — the identical request
        re-asked over held worlds gets the *same array* back with only the
        dirty objects' columns recomputed (see ``QueryEngine.
        refine_cache_size``).  The tensor is therefore owned by the
        engine: estimators must treat it as **read-only** (every counting
        reduction in :mod:`repro.trajectory.nn` already is) — writing into
        it would corrupt later ticks' patched reuse.
        """
        return self.engine.distance_tensor(
            self.refine_ids,
            self.request.query,
            self.times,
            n_samples=self.plan.n_samples if n_samples is None else n_samples,
            normalized=True,
            cache_k=self.request.k,
        )

    def reverse_distances(
        self, n_samples: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shared draw serving the *reverse* direction: ``(dist, od)``.

        The reverse sibling of :meth:`refinement_distances` — one sampled
        states block per call yields both the query-distance tensor and
        the inter-object tensor ``od[w, a, o, t]``, so reverse estimation
        never re-samples per object (and, inside a shared epoch, reads
        the very worlds a forward refinement over the same objects would).
        """
        return self.engine.reverse_distance_tensors(
            self.refine_ids,
            self.request.query,
            self.times,
            n_samples=self.plan.n_samples if n_samples is None else n_samples,
            normalized=True,
            cache_k=self.request.k,
        )


@dataclass
class EstimateOutcome:
    """What an estimator hands back to the threshold stage.

    ``probabilities`` maps object id to the mode's primary value (P∀kNN
    for ``forall``/``raw``, P∃kNN for ``exists``, reverse-P∀kNN for
    ``reverse_nn``); ``exists_probabilities`` carries the second component
    of ``raw`` and ``reverse_nn`` evaluations; ``entries`` the mined sets
    of ``pcnn`` evaluations.  ``sampled_objects`` counts objects
    that went through Monte-Carlo refinement — the quantity the hybrid
    estimator exists to reduce.
    """

    probabilities: dict[str, float] = field(default_factory=dict)
    exists_probabilities: dict[str, float] | None = None
    entries: list[PCNNEntry] | None = None
    sets_evaluated: int = 0
    n_samples_used: int = 0
    sampled_objects: int = 0
    estimator_by_object: dict[str, str] = field(default_factory=dict)
    undecided: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


class Estimator:
    """Estimation-strategy interface: one :meth:`estimate` call per query."""

    #: Registry key; also recorded per object in the evaluation report.
    name = "abstract"

    def estimate(self, ctx: EstimationContext) -> EstimateOutcome:
        """Produce the estimate stage's outcome for one planned request."""
        raise NotImplementedError

    def run(self, ctx: EstimationContext) -> EstimateOutcome:
        """:meth:`estimate` plus telemetry (the pipeline entry point): the
        strategy's own child span under the estimate stage, and per-strategy
        counters in the engine's registry.  Pure observation — the outcome
        bytes are identical either way.
        """
        engine = ctx.engine
        with engine.tracer.span(f"estimator:{self.name}") as span:
            outcome = self.estimate(ctx)
            span.set(
                n_samples_used=outcome.n_samples_used,
                sampled_objects=outcome.sampled_objects,
                undecided=outcome.undecided,
            )
        engine._instrument(
            "counter", "estimator_runs_total", "Estimate-stage executions, by strategy.",
            estimator=self.name,
        ).inc()
        if outcome.sampled_objects:
            engine._instrument(
                "counter", "estimator_sampled_objects_total",
                "Objects refined by Monte-Carlo sampling, by strategy.",
                estimator=self.name,
            ).inc(outcome.sampled_objects)
        return outcome


class SampledEstimator(Estimator):
    """Monte-Carlo refinement over all influence objects (Section 5).

    Exactly the pre-pipeline engine's code path: one
    ``distance_tensor`` draw per query, then world counting — RNG
    consumption is bit-identical to the legacy entry points.
    """

    name = "sampled"

    def estimate(self, ctx: EstimationContext) -> EstimateOutcome:
        if not ctx.refine_ids:
            return EstimateOutcome(entries=[] if ctx.request.mode == "pcnn" else None)
        n = ctx.plan.n_samples
        tagged = {oid: self.name for oid in ctx.refine_ids}
        if ctx.request.mode == "reverse_nn":
            dist, object_dist = ctx.reverse_distances(n)
            indicator = reverse_knn_indicator(dist, object_dist, ctx.request.k)
            forall = indicator.all(axis=2).mean(axis=0)
            exists = indicator.any(axis=2).mean(axis=0)
            return EstimateOutcome(
                probabilities={
                    oid: float(p) for oid, p in zip(ctx.refine_ids, forall)
                },
                exists_probabilities={
                    oid: float(p) for oid, p in zip(ctx.refine_ids, exists)
                },
                n_samples_used=n,
                sampled_objects=len(ctx.refine_ids),
                estimator_by_object=tagged,
            )
        if ctx.request.mode == "forall":
            return EstimateOutcome(
                probabilities=_forall_refinement(ctx),
                n_samples_used=n,
                sampled_objects=len(ctx.refine_ids),
                estimator_by_object=tagged,
            )
        dist = ctx.refinement_distances(n)
        if ctx.request.mode == "pcnn":
            entries, sets_evaluated = _mine_entries(ctx, dist)
            return EstimateOutcome(
                entries=entries,
                sets_evaluated=sets_evaluated,
                n_samples_used=n,
                sampled_objects=len(ctx.refine_ids),
                estimator_by_object=tagged,
            )
        # One indicator, reduced once per component (raw: both, from the
        # same worlds).
        indicator = knn_indicator(dist, ctx.request.k)
        exists = indicator.any(axis=2).mean(axis=0)
        if ctx.request.mode == "exists":
            primary, secondary = exists, None
        else:
            primary, secondary = indicator.all(axis=2).mean(axis=0), exists
        probs = {oid: float(p) for oid, p in zip(ctx.refine_ids, primary)}
        exists_probs = (
            {oid: float(p) for oid, p in zip(ctx.refine_ids, secondary)}
            if secondary is not None
            else None
        )
        return EstimateOutcome(
            probabilities=probs,
            exists_probabilities=exists_probs,
            n_samples_used=n,
            sampled_objects=len(ctx.refine_ids),
            estimator_by_object=tagged,
        )


class AdaptiveEstimator(SampledEstimator):
    """Sampled refinement at the Hoeffding-implied world count.

    Identical machinery to :class:`SampledEstimator`; the planner has
    already replaced the fixed ``n_samples`` with
    ``ceil(ln(2/δ) / (2 ε²))`` from the request's precision target, and
    the report carries the achieved radius.
    """

    name = "adaptive"


class ExactEstimator(Estimator):
    """Possible-world enumeration oracle (budget-guarded, small instances).

    Raises :class:`~repro.core.exact.WorldBudgetExceeded` when the database
    induces more than the request's ``max_worlds`` worlds (or ``max_paths``
    consistent paths per object) — exactness is opt-in, never silent
    approximation; raise the budgets per request when an instance needs it.
    """

    name = "exact"

    def estimate(self, ctx: EstimationContext) -> EstimateOutcome:
        db, q = ctx.engine.db, ctx.request.query
        if ctx.request.mode == "pcnn":
            # tau > 0 is guaranteed by build_plan (fails at plan time).
            tables = exact_forall_nn_over_times(
                db,
                q,
                ctx.times,
                k=ctx.request.k,
                max_worlds=ctx.request.max_worlds,
                max_paths=ctx.request.max_paths,
            )
            entries: list[PCNNEntry] = []
            sets_evaluated = 0
            for oid in ctx.refine_ids:
                table = tables.get(oid, {})
                sets_evaluated += len(table)
                for subset, p in table.items():
                    if p >= ctx.request.tau:
                        entries.append(PCNNEntry(oid, subset, p))
            return EstimateOutcome(
                entries=entries,
                sets_evaluated=sets_evaluated,
                estimator_by_object={oid: self.name for oid in ctx.refine_ids},
            )
        oracle = (
            exact_reverse_nn_probabilities
            if ctx.request.mode == "reverse_nn"
            else exact_nn_probabilities
        )
        exact = oracle(
            db,
            q,
            ctx.times,
            k=ctx.request.k,
            max_worlds=ctx.request.max_worlds,
            max_paths=ctx.request.max_paths,
        )
        component = 0 if ctx.request.mode in ("forall", "raw", "reverse_nn") else 1
        probs = {oid: exact[oid][component] for oid in ctx.refine_ids}
        exists_probs = (
            {oid: exact[oid][1] for oid in ctx.refine_ids}
            if ctx.request.mode in ("raw", "reverse_nn")
            else None
        )
        return EstimateOutcome(
            probabilities=probs,
            exists_probabilities=exists_probs,
            estimator_by_object={oid: self.name for oid in ctx.refine_ids},
        )


def _forall_refinement(ctx: EstimationContext) -> dict[str, float]:
    """One shared world draw over all influence objects, counted with the
    ∀ semantics — the single refinement path behind both the sampled and
    hybrid estimators, so their estimates cannot drift apart."""
    probs = forall_knn_prob(ctx.refinement_distances(), ctx.request.k)
    return {oid: float(p) for oid, p in zip(ctx.refine_ids, probs)}


def _bounds_verdicts(
    ctx: EstimationContext,
) -> tuple[dict[str, float], dict[str, str], list[str]]:
    """Lemma 2 verdicts for every candidate: values, tags, undecided ids.

    Delegates to :func:`repro.core.bounds.bounds_partition` with the
    competitors restricted to the filter step's influence set.  Accepted
    candidates are stored at their certified *lower* bound (≥ τ by
    construction), rejected ones at their certified *upper* bound (< τ).
    """
    bounds, accepted, rejected, undecided = bounds_partition(
        ctx.engine.db,
        ctx.request.query,
        ctx.times,
        ctx.request.tau,
        ctx.result_ids,
        ctx.refine_ids,
    )
    values: dict[str, float] = {}
    tags: dict[str, str] = {}
    for oid in accepted:
        values[oid] = bounds[oid].lower
        tags[oid] = "bounds:accepted"
    for oid in rejected:
        values[oid] = bounds[oid].upper
        tags[oid] = "bounds:rejected"
    return values, tags, undecided


class BoundsEstimator(Estimator):
    """Decide τ from the PTIME Lemma 2 bounds alone — no sampling, ever.

    Only P∀NN with ``k=1`` (enforced at plan time).  Candidates whose
    bounds straddle τ are left *undecided*: they appear in the report (and
    in ``EstimateOutcome.undecided``) but carry no probability — a caller
    needing them resolved should use ``estimator="hybrid"``.

    The τ-decision is certified, but the reported *values* are loose
    bounds (Fréchet lower bound for accepted, pairwise-min upper bound
    for rejected), so the descending-probability ordering of the result
    list may differ from the true probability ranking — consumers that
    need a faithful ranking among accepted objects should use a sampling
    estimator.
    """

    name = "bounds"

    def estimate(self, ctx: EstimationContext) -> EstimateOutcome:
        values, tags, undecided = _bounds_verdicts(ctx)
        notes = ()
        if undecided:
            notes = (
                f"{len(undecided)} candidate(s) undecided by bounds; "
                "use estimator='hybrid' to sample exactly these",
            )
        return EstimateOutcome(
            probabilities=values,
            estimator_by_object=tags,
            undecided=tuple(undecided),
            notes=notes,
        )


class HybridEstimator(Estimator):
    """Bounds first, Monte-Carlo refinement only for the undecided rest.

    The §4.2 + §5 fast path: conclusive candidates cost one PTIME bound
    computation instead of a refinement pass, and when *every* candidate
    is conclusive the query samples **zero** objects.  Refinement is
    all-or-nothing: a single undecided candidate triggers one shared
    world draw over *all* influence objects (the P∀NN of one object
    depends on every competitor), but only the undecided candidates are
    estimated from it — ``sampled_objects`` therefore counts drawn
    influence objects (the refinement *cost*), while
    ``estimator_by_object`` records value *provenance* for candidates
    only; the two deliberately do not add up.  Like the pure bounds
    estimator, bound-decided candidates carry loose certified bounds, so
    the result ordering can differ from the true probability ranking.
    That draw uses the same per-object world
    machinery as the pure sampled estimator, so two engines at the same
    seed whose query histories have sampled equally often produce
    bit-identical estimates for the undecided objects (per-object RNGs
    are derived from the epoch *and* the engine's count of prior direct
    draws — a hybrid query that sampled nothing does not advance that
    count, after which the two histories diverge by design).
    """

    name = "hybrid"

    def estimate(self, ctx: EstimationContext) -> EstimateOutcome:
        values, tags, undecided = _bounds_verdicts(ctx)
        n_samples_used = 0
        sampled_objects = 0
        if undecided and ctx.refine_ids:
            by_id = _forall_refinement(ctx)
            for oid in undecided:
                values[oid] = by_id[oid]
                tags[oid] = "sampled"
            n_samples_used = ctx.plan.n_samples
            sampled_objects = len(ctx.refine_ids)
        return EstimateOutcome(
            probabilities=values,
            n_samples_used=n_samples_used,
            sampled_objects=sampled_objects,
            estimator_by_object=tags,
            undecided=tuple(undecided),
        )


def _mine_entries(
    ctx: EstimationContext, dist: np.ndarray
) -> tuple[list[PCNNEntry], int]:
    """Algorithm 1 mining per refined object over a shared world draw.

    The whole indicator is packed into world bitmaps once — along its
    contiguous axis — and every object mines its own ``|T|`` of them.
    """
    k = ctx.request.k
    is_nn = knn_indicator(dist, k)
    n_worlds, _, n_times = is_nn.shape
    masks = world_masks(is_nn.transpose(1, 2, 0))
    entries: list[PCNNEntry] = []
    sets_evaluated = 0
    for col, object_id in enumerate(ctx.refine_ids):
        mined, stats = mine_world_masks(
            masks[col * n_times : (col + 1) * n_times],
            n_worlds,
            ctx.times,
            ctx.request.tau,
            max_candidates=ctx.request.max_candidates,
            use_certain_shortcut=ctx.request.use_certain_shortcut,
        )
        sets_evaluated += stats.sets_evaluated
        for timeset, p in mined:
            entries.append(PCNNEntry(object_id, timeset, p))
    return entries, sets_evaluated


#: Strategy registry, keyed by the names ``QueryRequest`` accepts.
ESTIMATORS: dict[str, type[Estimator]] = {
    cls.name: cls
    for cls in (
        SampledEstimator,
        ExactEstimator,
        BoundsEstimator,
        HybridEstimator,
        AdaptiveEstimator,
    )
}
if set(ESTIMATORS) != set(ESTIMATOR_NAMES):  # pragma: no cover - import guard
    raise RuntimeError(
        "estimator registry out of sync with queries.ESTIMATOR_NAMES: "
        f"{sorted(ESTIMATORS)} != {sorted(ESTIMATOR_NAMES)}"
    )


def make_estimator(name: str) -> Estimator:
    """Instantiate the registered strategy for a resolved plan."""
    try:
        return ESTIMATORS[name]()
    except KeyError:
        raise ValueError(
            f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
        ) from None
