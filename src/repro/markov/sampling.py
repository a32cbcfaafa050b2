"""Trajectory samplers: the naive baselines and the a-posteriori sampler.

Section 5.1 describes why traditional Monte-Carlo sampling fails: starting
from the first observation and rolling the a-priori chain forward, the
probability that a sampled trajectory hits *all* later observations decays
exponentially with the number of observations (TS1).  Segment-wise rejection
(TS2, § 7.1 "Sampling Efficiency") retries each inter-observation segment
independently, which is linear instead of exponential — but still requires
on the order of 100k draws in the paper's measurements.  The
forward-backward sampler (:mod:`repro.markov.adaptation`) needs exactly one
draw per valid trajectory.

These baselines exist to reproduce Fig. 10; production code should always
use :meth:`AdaptedModel.sample_paths`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptation import AdaptedModel
from .chain import TransitionModel

__all__ = [
    "SamplingStats",
    "rejection_sample",
    "segment_rejection_sample",
    "posterior_sample",
    "estimate_rejection_cost",
    "estimate_segment_cost",
]


@dataclass
class SamplingStats:
    """Outcome of a rejection-sampling run.

    Attributes
    ----------
    trajectories:
        ``(n_valid, span)`` state array of accepted trajectories.
    attempts:
        Total trajectories (TS1) or segment roll-outs normalized per
        trajectory (TS2) drawn, including rejected ones.
    requested:
        Number of valid trajectories that were requested.
    """

    trajectories: np.ndarray
    attempts: int
    requested: int

    @property
    def attempts_per_valid(self) -> float:
        """The series plotted in Fig. 10: draws needed per valid sample."""
        n_valid = self.trajectories.shape[0]
        if n_valid == 0:
            return float("inf")
        return self.attempts / n_valid


def _roll_forward(
    chain: TransitionModel,
    start_state: int,
    t_start: int,
    t_end: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One a-priori forward roll-out from ``(t_start, start_state)``."""
    return _roll_batch(chain, start_state, t_start, t_end, 1, rng)[0]


def rejection_sample(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    n: int,
    rng: np.random.Generator,
    max_attempts: int = 1_000_000,
) -> SamplingStats:
    """TS1: roll the a-priori chain forward, reject on any missed observation.

    The expected number of attempts per valid trajectory grows exponentially
    with the number of observations — this is the curve the paper uses to
    motivate Algorithm 2.
    """
    obs = sorted((int(t), int(s)) for t, s in observations)
    if len(obs) < 1:
        raise ValueError("need at least one observation")
    t_first, start_state = obs[0]
    t_last = obs[-1][0]
    checkpoints = [(t - t_first, s) for t, s in obs[1:]]

    accepted: list[np.ndarray] = []
    attempts = 0
    while len(accepted) < n and attempts < max_attempts:
        attempts += 1
        path = _roll_forward(chain, start_state, t_first, t_last, rng)
        if all(path[offset] == s for offset, s in checkpoints):
            accepted.append(path)
    trajectories = (
        np.stack(accepted) if accepted else np.empty((0, t_last - t_first + 1), dtype=np.intp)
    )
    return SamplingStats(trajectories=trajectories, attempts=attempts, requested=n)


def segment_rejection_sample(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    n: int,
    rng: np.random.Generator,
    max_attempts_per_segment: int = 200_000,
) -> SamplingStats:
    """TS2: segment-wise rejection between consecutive observations.

    Each inter-observation segment is re-rolled until its endpoint matches
    the next observation, then frozen.  Attempts grow linearly in the number
    of observations.

    Note: as the paper's Fig. 3 discussion implies, TS2 is *not* an unbiased
    sampler of the a-posteriori process (freezing a segment conditions only
    on the next observation, not on all of them — here segments are
    conditionally independent given observations, so for a first-order chain
    the bias vanishes; the cost model is what Fig. 10 compares).
    """
    obs = sorted((int(t), int(s)) for t, s in observations)
    if len(obs) < 1:
        raise ValueError("need at least one observation")
    t_first = obs[0][0]
    t_last = obs[-1][0]
    span = t_last - t_first + 1

    accepted = np.empty((n, span), dtype=np.intp)
    total_attempts = 0
    for row in range(n):
        accepted[row, 0] = obs[0][1]
        for (t0, s0), (t1, s1) in zip(obs, obs[1:]):
            attempts = 0
            while True:
                attempts += 1
                total_attempts += 1
                if attempts > max_attempts_per_segment:
                    raise RuntimeError(
                        f"segment ({t0}->{t1}) exceeded {max_attempts_per_segment} attempts"
                    )
                path = _roll_forward(chain, s0, t0, t1, rng)
                if path[-1] == s1:
                    break
            accepted[row, t0 - t_first : t1 - t_first + 1] = path
    return SamplingStats(trajectories=accepted, attempts=total_attempts, requested=n)


def _roll_batch(
    chain: TransitionModel,
    start_state: int,
    t_start: int,
    t_end: int,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Roll ``batch`` independent a-priori walks at once (vectorized).

    Each timestep is one inverse-CDF transform through the chain's compiled
    transition matrix (:meth:`TransitionModel.compiled_step`) — no
    per-state Python loop.
    """
    out = np.empty((batch, t_end - t_start + 1), dtype=np.intp)
    out[:, 0] = start_state
    current = out[:, 0]
    for offset, t in enumerate(range(t_start, t_end)):
        current = chain.compiled_step(t).draw(current, rng.random(batch), t=t)
        out[:, offset + 1] = current
    return out


def estimate_rejection_cost(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    target_valid: int,
    budget: int,
    rng: np.random.Generator,
    batch: int = 2048,
) -> tuple[float, bool]:
    """Empirical TS1 cost: attempts per valid trajectory (Fig. 10 series).

    Rolls batched a-priori walks until ``target_valid`` hits or ``budget``
    attempts.  Returns ``(attempts_per_valid, capped)``; when capped with
    zero hits the estimate is a lower bound ``budget / 1``.
    """
    obs = sorted((int(t), int(s)) for t, s in observations)
    t_first, start = obs[0]
    t_last = obs[-1][0]
    checkpoints = [(t - t_first, s) for t, s in obs[1:]]

    attempts = 0
    valid = 0
    while valid < target_valid and attempts < budget:
        size = min(batch, budget - attempts)
        rolls = _roll_batch(chain, start, t_first, t_last, size, rng)
        ok = np.ones(size, dtype=bool)
        for offset, s in checkpoints:
            ok &= rolls[:, offset] == s
        attempts += size
        valid += int(ok.sum())
    capped = valid < target_valid
    return attempts / max(valid, 1), capped


def estimate_segment_cost(
    chain: TransitionModel,
    observations: list[tuple[int, int]],
    target_valid: int,
    budget_per_segment: int,
    rng: np.random.Generator,
    batch: int = 2048,
) -> tuple[float, bool]:
    """Empirical TS2 cost: expected segment roll-outs per valid trajectory.

    Each segment is retried independently until its endpoint matches, so
    the expected total cost is ``Σ_seg 1 / p_seg`` — estimated here from
    batched hit rates.  A segment with *zero* hits inside its budget makes
    the estimate ``float("inf")`` (with ``capped=True``): the true cost is
    unbounded from this evidence, and a finite ``budget`` value would be
    indistinguishable from a genuine measurement in Fig. 10.
    """
    obs = sorted((int(t), int(s)) for t, s in observations)
    total = 0.0
    capped = False
    for (t0, s0), (t1, s1) in zip(obs, obs[1:]):
        attempts = 0
        hits = 0
        while hits < target_valid and attempts < budget_per_segment:
            size = min(batch, budget_per_segment - attempts)
            rolls = _roll_batch(chain, s0, t0, t1, size, rng)
            attempts += size
            hits += int(np.sum(rolls[:, -1] == s1))
        if hits == 0:
            return float("inf"), True
        capped = capped or hits < target_valid
        total += attempts / hits
    if not obs[1:]:
        total = 1.0  # single observation: every roll is trivially valid
    return total, capped


def posterior_sample(
    model: AdaptedModel,
    n: int,
    rng: np.random.Generator,
    t_start: int | None = None,
    t_end: int | None = None,
    start_states: np.ndarray | None = None,
) -> SamplingStats:
    """Forward-backward sampler wrapped in the same stats interface.

    Every draw is valid by construction, so ``attempts == n`` always — the
    flat line of Fig. 10.  ``t_start``/``t_end`` restrict the draw to a
    window of the adapted span and ``start_states`` resumes previously
    sampled paths (see :meth:`AdaptedModel.sample_paths`); resumed draws
    consume no initial variate, so windowed growth stays bit-identical to
    one-shot sampling.
    """
    trajectories = model.sample_paths(rng, n, t_start, t_end, start_states=start_states)
    return SamplingStats(trajectories=trajectories, attempts=n, requested=n)
