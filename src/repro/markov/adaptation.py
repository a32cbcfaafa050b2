"""Forward-backward adaptation of a-priori Markov chains (Algorithm 2).

This is the paper's central machinery (Section 5.2): given an object's
a-priori chain ``M^o(t)`` and its observations ``Θ^o``, two Bayesian sweeps
produce the a-posteriori, time-inhomogeneous transition model

``F^o_ij(t) = P(o(t+1) = s_j | o(t) = s_i, Θ^o)``

conditioned on *all* observations — past, present and future.  Sampling
from ``F`` yields only trajectories consistent with every observation
(versus an exponential rejection rate for naive Monte-Carlo, Section 5.1).

The implementation keeps all state vectors on their active support
(:class:`~repro.markov.distributions.SparseDistribution`), so cost scales
with diamond width, not ``|S|``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import TransitionModel
from .compiled import CompiledModel, compile_model
from .distributions import SparseDistribution

__all__ = ["ObservationContradictionError", "Segment", "AdaptedModel", "adapt_model"]

RowDist = tuple[np.ndarray, np.ndarray]


class ObservationContradictionError(ValueError):
    """Observations are unreachable under the a-priori chain.

    Algorithm 2 requires non-contradicting observations (Section 5.2.1): an
    observed state with zero forward probability means the chain's support
    cannot explain the data.
    """


@dataclass
class Segment:
    """Derived state of one inter-observation stretch of an adapted model.

    The unit of reuse on the write path: everything here is a pure function
    of :attr:`key` and the chain, so a model adapted after one more fix
    shares the records of every stretch the fix did not touch.

    Attributes
    ----------
    key:
        ``(t0, s0, t1, s1)`` — the bounding fixes; ``s1`` is ``None`` for
        the open cone past the last observation (``extend_to``).
    transitions:
        ``F(t)`` rows for ``t0 <= t < t1``.
    posteriors:
        Posterior marginals for ``t0 <= t < t1`` (the cone: ``t0 < t <=
        t1``); the posterior at the closing fix is the point ``s1``.
    forwards:
        Forward marginals for ``t0 < t <= t1``.
    compiled:
        ``(layers, initials)`` of these tics once
        :func:`~repro.markov.compiled.compile_model` has flattened them —
        carried along with the record, so they are flattened once.
    """

    key: tuple[int, int | None, int, int | None]
    transitions: dict[int, dict[int, RowDist]]
    posteriors: dict[int, SparseDistribution]
    forwards: dict[int, SparseDistribution]
    compiled: tuple[dict, dict] | None = field(default=None, repr=False, compare=False)


@dataclass
class AdaptedModel:
    """The a-posteriori model of one object.

    Attributes
    ----------
    t_first, t_last:
        Time span covered (first and last observation times).  Outside this
        span the object's position is undefined — the paper only reasons
        about trajectories between first and last observation.
    transitions:
        ``transitions[t][s]`` is the conditional distribution of the state
        at ``t+1`` given state ``s`` at ``t`` and all observations (matrix
        ``F(t)`` of Algorithm 2), stored as ``(next_states, probs)`` rows.
    posteriors:
        ``P(o(t) = · | Θ^o)`` for every ``t`` in the span.
    forwards:
        ``P(o(t) = · | past observations up to t)`` — the forward-phase
        marginals, kept for the "forward-only" ablation of Fig. 12.
    """

    t_first: int
    t_last: int
    transitions: dict[int, dict[int, RowDist]]
    posteriors: dict[int, SparseDistribution]
    forwards: dict[int, SparseDistribution]
    observation_times: tuple[int, ...] = field(default=())
    #: The chain the model was adapted under and its per-stretch records
    #: (set by :func:`adapt_model`).  A hand-assembled model is one
    #: anonymous stretch over its own dicts: nothing matches its key.
    chain: TransitionModel | None = field(
        default=None, init=False, repr=False, compare=False
    )
    segments: tuple[Segment, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    _compiled: CompiledModel | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.segments = (
            Segment(
                (self.t_first, None, self.t_last, None),
                self.transitions,
                self.posteriors,
                self.forwards,
            ),
        )

    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledModel:
        """The flattened sampling view of ``F`` (built lazily, then cached)."""
        if self._compiled is None:
            self._compiled = compile_model(self)
        return self._compiled

    def covers(self, t: int) -> bool:
        """Whether the object's uncertain trajectory is defined at ``t``."""
        return self.t_first <= t <= self.t_last

    def posterior(self, t: int) -> SparseDistribution:
        """Marginal a-posteriori state distribution at ``t``."""
        if not self.covers(t):
            raise KeyError(f"time {t} outside adapted span [{self.t_first}, {self.t_last}]")
        return self.posteriors[t]

    def forward_marginal(self, t: int) -> SparseDistribution:
        """Forward-phase marginal (conditioned on past observations only)."""
        if not self.covers(t):
            raise KeyError(f"time {t} outside adapted span [{self.t_first}, {self.t_last}]")
        return self.forwards[t]

    def transition_row(self, t: int, state: int) -> RowDist:
        """Posterior transition distribution from ``state`` at ``t`` to ``t+1``."""
        return self.transitions[t][state]

    # ------------------------------------------------------------------
    def sample_paths(
        self,
        rng: np.random.Generator,
        n: int,
        t_start: int | None = None,
        t_end: int | None = None,
        backend: str = "compiled",
        start_states: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw ``n`` trajectories over ``[t_start, t_end]`` from ``F``.

        Every returned trajectory is consistent with all observations; the
        rows are i.i.d. samples of the a-posteriori stochastic process.
        Returns an ``(n, t_end - t_start + 1)`` integer array of states.

        ``backend="compiled"`` (default) samples through the flattened
        :attr:`compiled` view — one vectorized inverse-CDF transform per
        timestep.  ``backend="reference"`` keeps the legacy row-dict walk;
        both consume the RNG stream identically (one ``rng.random(n)`` per
        timestep), so a fixed seed yields bit-identical paths on either.
        ``backend="native"`` is accepted as an alias of ``"compiled"``
        here: the native tier accelerates *fused* (arena) draws, and
        per-object draws on a native engine go through the compiled path
        — bit-identical by the same argument, so mixing them is safe.

        ``start_states`` resumes ``n`` previously sampled paths from their
        known states at ``t_start``: the initial variate is *not* consumed
        and the first output column echoes ``start_states``.  Sampling
        ``[a, m]`` and then resuming over ``[m, b]`` from the same generator
        therefore consumes the stream exactly like one draw of ``[a, b]``,
        on either backend — forward extension of cached worlds stays
        bit-identical to one-shot sampling.
        """
        a = self.t_first if t_start is None else int(t_start)
        b = self.t_last if t_end is None else int(t_end)
        if a > b:
            raise ValueError(f"empty sampling window [{a}, {b}]")
        if not (self.covers(a) and self.covers(b)):
            raise KeyError(
                f"window [{a}, {b}] outside adapted span [{self.t_first}, {self.t_last}]"
            )
        if backend in ("compiled", "native"):
            return self.compiled.sample_paths(rng, n, a, b, start_states=start_states)
        if backend != "reference":
            raise ValueError(f"unknown sampling backend {backend!r}")
        length = b - a + 1
        out = np.empty((n, length), dtype=np.intp)
        if start_states is None:
            start = self.posterior(a)
            out[:, 0] = _inverse_cdf_pick(
                start.states, np.cumsum(start.probs), rng.random(n)
            )
        else:
            start_states = np.asarray(start_states, dtype=np.intp)
            if start_states.shape != (n,):
                raise ValueError(
                    f"start_states must have shape ({n},), got {start_states.shape}"
                )
            if not np.isin(start_states, self.posterior(a).states).all():
                raise ValueError(
                    f"some start states lie outside the posterior support at time {a}"
                )
            out[:, 0] = start_states
        for offset, t in enumerate(range(a, b)):
            current = out[:, offset]
            nxt = out[:, offset + 1]
            rows = self.transitions[t]
            u = rng.random(n)
            for state in np.unique(current):
                mask = current == state
                next_states, probs = rows[int(state)]
                nxt[mask] = _inverse_cdf_pick(next_states, np.cumsum(probs), u[mask])
        return out

    def expected_positions(self, coords: np.ndarray) -> dict[int, np.ndarray]:
        """Posterior-mean position per timestep (diagnostics/examples)."""
        out = {}
        for t in range(self.t_first, self.t_last + 1):
            dist = self.posteriors[t]
            out[t] = dist.probs @ coords[dist.states]
        return out


def _inverse_cdf_pick(
    values: np.ndarray, cdf: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Map uniforms through a categorical CDF (clipped against float error)."""
    picks = np.searchsorted(cdf, u, side="right")
    return values[np.minimum(picks, values.size - 1)]


def adapt_model(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    extend_to: int | None = None,
    donor: AdaptedModel | None = None,
) -> AdaptedModel:
    """Run Algorithm 2: forward and backward phase, one segment at a time.

    Observations are certain, so both sweeps factorise at every fix: the
    forward marginal collapses to a point there and the posterior at an
    observation tic is exactly ``([θ], [1.0])``.  ``F(t)`` between two
    consecutive fixes is therefore a pure function of that pair and the
    chain, and the model is assembled from one :class:`Segment` per pair.

    Parameters
    ----------
    chain:
        The object's a-priori transition model ``M^o(t)``.
    observations:
        ``(time, state)`` pairs; must be time-sorted with distinct times
        and at least one entry.  The locations of observations are certain
        (Section 3.1).
    extend_to:
        Optionally extend the model past the last observation up to this
        time using the unconditioned a-priori chain (there is no future
        evidence to incorporate) — e.g. Example 1 of the paper, where all
        uncertainty lies *after* the single observation per object.
    donor:
        A model adapted earlier under the same ``chain`` object (typically
        the one a newly ingested fix replaced).  Segments whose bounding
        fixes are unchanged are carried over from it — shared, not copied,
        and byte-identical to recomputing them; a donor of another chain
        is ignored.

    Returns
    -------
    AdaptedModel
        The a-posteriori transition matrices ``F(t)``, posterior and
        forward marginals.

    Raises
    ------
    ObservationContradictionError
        When an observation has zero probability under the chain given the
        preceding observations.
    """
    obs = [(int(t), int(s)) for t, s in observations]
    if not obs:
        raise ValueError("need at least one observation")
    times = [t for t, _ in obs]
    if sorted(set(times)) != times:
        raise ValueError("observation times must be strictly increasing")
    for _, state in obs:
        if not 0 <= state < chain.n_states:
            raise ValueError(f"observed state {state} outside state space")

    carried: dict[tuple, Segment] = (
        {seg.key: seg for seg in donor.segments}
        if donor is not None and donor.chain is chain
        else {}
    )
    # Segments are visited in time order, so the earliest contradiction is
    # the one raised — carried-over segments have none.
    segments = [
        carried.get((t0, s0, t1, s1)) or _adapt_segment(chain, t0, s0, t1, s1)
        for (t0, s0), (t1, s1) in zip(obs, obs[1:])
    ]
    (t_first, s_first), (t_last, s_last) = obs[0], obs[-1]
    t_cover = t_last
    if extend_to is not None and int(extend_to) > t_last:
        t_cover = int(extend_to)
        segments.append(
            carried.get((t_last, s_last, t_cover, None))
            or _extend_segment(chain, t_last, s_last, t_cover)
        )

    transitions: dict[int, dict[int, RowDist]] = {}
    posteriors = {t_last: SparseDistribution.point(s_last)}
    forwards = {t_first: SparseDistribution.point(s_first)}
    for seg in segments:
        transitions.update(seg.transitions)
        posteriors.update(seg.posteriors)
        forwards.update(seg.forwards)
    model = AdaptedModel(
        t_first=t_first,
        t_last=t_cover,
        transitions=transitions,
        posteriors=posteriors,
        forwards=forwards,
        observation_times=tuple(times),
    )
    model.chain, model.segments = chain, tuple(segments)
    return model


def _adapt_segment(
    chain: TransitionModel, t0: int, s0: int, t1: int, s1: int
) -> Segment:
    """Algorithm 2 between the consecutive fixes ``(t0, s0)`` and ``(t1, s1)``."""
    # ------------------------------------------------------------------
    # Forward phase (Algorithm 2, lines 2-10): propagate with the a-priori
    # chain from the certain start, recording the time-reversed matrices
    # R(t), and condition on the closing observation when it is reached.
    # ------------------------------------------------------------------
    forwards: dict[int, SparseDistribution] = {}
    reverse: dict[int, dict[int, RowDist]] = {}
    current = SparseDistribution.point(s0)

    for t in range(t0 + 1, t1 + 1):
        matrix = chain.matrix_at(t - 1)
        rows = matrix[current.states]
        # X'(t) of Algorithm 2 (transposed layout): entry (j_local, i) is
        # the joint probability P(o(t-1) = states[j_local], o(t) = s_i | past).
        joint = rows.multiply(current.probs[:, None]).tocsc()
        col_sums = np.asarray(joint.sum(axis=0)).ravel()
        active = np.flatnonzero(col_sums > 0)
        if active.size == 0:
            raise ObservationContradictionError(
                f"chain support dies out at time {t} before reaching the next observation"
            )

        rows_of_t: dict[int, RowDist] = {}
        indptr, indices, data = joint.indptr, joint.indices, joint.data
        for i in active:
            lo, hi = indptr[i], indptr[i + 1]
            prev_states = current.states[indices[lo:hi]]
            probs = data[lo:hi] / col_sums[i]
            order = np.argsort(prev_states, kind="stable")
            rows_of_t[int(i)] = (prev_states[order], probs[order])
        reverse[t] = rows_of_t

        current = SparseDistribution(active, col_sums[active] / col_sums[active].sum())
        if t == t1:
            if current.probability_of(s1) <= 0.0:
                raise ObservationContradictionError(
                    f"observation (t={t}, state={s1}) has zero probability "
                    "under the a-priori chain given earlier observations"
                )
            current = SparseDistribution.point(s1)
        forwards[t] = current

    # ------------------------------------------------------------------
    # Backward phase (lines 12-16): traverse time backwards through R(t)
    # from the certain end, producing the a-posteriori transitions F(t)
    # and posterior marginals.
    # ------------------------------------------------------------------
    posteriors: dict[int, SparseDistribution] = {}
    transitions: dict[int, dict[int, RowDist]] = {}
    next_dist = SparseDistribution.point(s1)

    for t in range(t1 - 1, t0 - 1, -1):
        rows_rev = reverse[t + 1]
        prev_parts: list[np.ndarray] = []
        next_parts: list[np.ndarray] = []
        mass_parts: list[np.ndarray] = []
        for k, p_k in zip(next_dist.states, next_dist.probs):
            prev_states, r_probs = rows_rev[int(k)]
            prev_parts.append(prev_states)
            next_parts.append(np.full(prev_states.shape, k, dtype=np.intp))
            mass_parts.append(r_probs * p_k)
        prev_all = np.concatenate(prev_parts)
        next_all = np.concatenate(next_parts)
        mass_all = np.concatenate(mass_parts)

        order = np.argsort(prev_all, kind="stable")
        prev_all, next_all, mass_all = prev_all[order], next_all[order], mass_all[order]
        uniq, starts = np.unique(prev_all, return_index=True)
        bounds = np.append(starts, prev_all.size)

        rows_fwd: dict[int, RowDist] = {}
        totals = np.empty(uniq.shape)
        for idx, state in enumerate(uniq):
            lo, hi = bounds[idx], bounds[idx + 1]
            mass = mass_all[lo:hi]
            total = mass.sum()
            totals[idx] = total
            rows_fwd[int(state)] = (next_all[lo:hi].copy(), mass / total)
        transitions[t] = rows_fwd
        next_dist = posteriors[t] = SparseDistribution(uniq, totals / totals.sum())

    return Segment((t0, s0, t1, s1), transitions, posteriors, forwards)


def _extend_segment(chain: TransitionModel, t0: int, s0: int, t1: int) -> Segment:
    """The open cone past the last fix ``(t0, s0)`` up to ``t1``.

    With no future evidence, the a-posteriori transitions equal the
    a-priori chain restricted to the reachable support.
    """
    transitions: dict[int, dict[int, RowDist]] = {}
    marginals: dict[int, SparseDistribution] = {}
    current = SparseDistribution.point(s0)
    for t in range(t0, t1):
        matrix = chain.matrix_at(t)
        rows_fwd = {}
        for state in current.states:
            row = matrix.getrow(int(state))
            if row.nnz == 0:
                raise ObservationContradictionError(
                    f"state {state} has no successors at time {t}"
                )
            rows_fwd[int(state)] = (row.indices.astype(np.intp), row.data.copy())
        transitions[t] = rows_fwd
        current = current.propagate(matrix)
        marginals[t + 1] = current
    return Segment((t0, s0, t1, None), transitions, marginals, marginals)
