"""Apriori mining of PCNN timestamp sets (Algorithm 1).

``P∀NN`` is anti-monotonic in the timestamp set: adding times can only
lower the probability.  Algorithm 1 therefore mines qualifying sets
level-wise like frequent itemsets [27]: start from qualifying singletons,
join (k-1)-sets into k-sets whose every (k-1)-subset qualified, validate by
estimating ``P∀NN`` over a shared pool of sampled worlds.

Sharing one world pool across all candidate sets keeps the empirical
estimator itself anti-monotonic (an AND over more columns can only have
fewer satisfying worlds), so the level-wise pruning stays sound even with
sampled probabilities.

Validation runs on **vertical bitmaps** — the tidset-intersection form of
level-wise mining: every tic's indicator column is packed once into a
world bitmap (:func:`world_masks`, one Python ``int`` per column), a
candidate's bitmap is its parent's ANDed with the joined tic's, and its
probability is ``popcount / worlds`` — the same IEEE division
``ndarray.mean`` performs on the same integer count, so the floats are
those of :func:`repro.trajectory.nn.forall_prob_over_times`, bit for bit.
``np.packbits`` pads the last byte with zero bits, which AND and popcount
never count (a NOT would).

:func:`mine_objects` mines every object of one world pool.  With
``native=True`` (an engine on the native backend) and ``|T| <= 64`` it
runs the level-wise C miner (:func:`repro.markov.native.mine_levels`) over
``uint64`` world words — the same join, subset check, counts, budget and
division as :func:`mine_world_masks`, which stays the fallback and the
byte-identity reference — and builds each set's times from its parent's
with one tuple append.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..markov import native as native_tier

__all__ = [
    "AprioriBudgetExceeded",
    "MiningStats",
    "mine_objects",
    "mine_timestamp_sets",
    "mine_world_masks",
    "world_masks",
]


class AprioriBudgetExceeded(RuntimeError):
    """Candidate generation exceeded the configured budget.

    Section 4.3 warns that for small τ the result may contain an
    exponential number of sets (up to ``2^|T|``).  The budget turns a
    silent blow-up into an explicit error.
    """


@dataclass
class MiningStats:
    """Work/result counters for the Apriori run (Figs. 13-14 series)."""

    sets_evaluated: int = 0
    sets_qualifying: int = 0
    max_level_reached: int = 0


def world_masks(indicator: np.ndarray) -> list[int]:
    """One world bitmap per leading index of a boolean ``(..., worlds)`` array.

    Returned flat, in C order of the leading axes.  The whole array is
    packed in one ``np.packbits`` along the world axis — cheapest when that
    axis is the contiguous one, the order the engine's indicators have.
    """
    packed = np.packbits(indicator, axis=-1)
    width = packed.shape[-1]
    raw = packed.tobytes()
    return [
        int.from_bytes(raw[i : i + width], "big")
        for i in range(0, len(raw), width)
    ]


def mine_timestamp_sets(
    indicator: np.ndarray,
    times: np.ndarray,
    tau: float,
    max_candidates: int = 100_000,
    use_certain_shortcut: bool = False,
) -> tuple[list[tuple[tuple[int, ...], float]], MiningStats]:
    """Run Algorithm 1 for one object.

    Parameters
    ----------
    indicator:
        Boolean ``(worlds, |T|)`` matrix: was the object NN of ``q`` at each
        time in each sampled world?
    times:
        The actual timestamps labelling the columns.
    tau:
        Probability threshold; must be positive (``τ = 0`` would qualify
        all ``2^|T|`` subsets — exactly the blow-up Section 4.3 describes).
    max_candidates:
        Budget on validated candidate sets before aborting.
    use_certain_shortcut:
        Apply the § 4.3 speed-up: times with ``P∀NN = 1`` extend every
        qualifying set without changing its probability, so they are mined
        separately and unioned into each result.  With the shortcut on, the
        returned collection contains every *maximal* qualifying set but
        omits padded subsets of the certain times.

    Returns
    -------
    (results, stats)
        ``results`` holds ``(timestamp tuple, probability)`` pairs for every
        qualifying set that was materialized.
    """
    indicator = np.asarray(indicator, dtype=bool)
    times = np.asarray(times, dtype=np.intp)
    if indicator.ndim != 2 or indicator.shape[1] != times.size or not indicator.size:
        raise ValueError("indicator must be a non-empty (worlds, |T|) matching times")
    return mine_world_masks(
        world_masks(indicator.T),
        indicator.shape[0],
        times,
        tau,
        max_candidates=max_candidates,
        use_certain_shortcut=use_certain_shortcut,
    )


def mine_world_masks(
    masks: list[int],
    n_worlds: int,
    times: np.ndarray,
    tau: float,
    max_candidates: int = 100_000,
    use_certain_shortcut: bool = False,
) -> tuple[list[tuple[tuple[int, ...], float]], MiningStats]:
    """:func:`mine_timestamp_sets` over already packed columns.

    ``masks[c]`` is the :func:`world_masks` bitmap of the indicator column
    of ``times[c]`` over ``n_worlds`` worlds — what a caller mining many
    objects over one world pool packs once for all of them.
    """
    _check_tau(tau)
    stats = MiningStats()
    n_cols = len(masks)
    counts = [mask.bit_count() for mask in masks]
    stats.sets_evaluated += n_cols

    certain_cols: tuple[int, ...] = ()
    if use_certain_shortcut:
        certain_cols = tuple(c for c in range(n_cols) if counts[c] == n_worlds)

    # L1: qualifying singletons over the mined columns.  ``level`` maps each
    # qualifying set of the current size to its world bitmap.
    level: dict[tuple[int, ...], int] = {}
    all_qualifying: dict[tuple[int, ...], float] = {}
    for col in range(n_cols):
        p = counts[col] / n_worlds
        if col not in certain_cols and p >= tau:
            level[(col,)] = masks[col]
            all_qualifying[(col,)] = p
            stats.sets_qualifying += 1

    k = 1
    while level:
        stats.max_level_reached = k
        k += 1
        next_level: dict[tuple[int, ...], int] = {}
        for cand in _join(level, k):
            if not _all_subsets_qualify(cand, level):
                continue
            stats.sets_evaluated += 1
            if stats.sets_evaluated > max_candidates:
                raise AprioriBudgetExceeded(_budget_message(max_candidates, k))
            # The worlds of the candidate: its parent's (the joined set
            # minus its last tic), intersected with that tic's.
            mask = level[cand[:-1]] & masks[cand[-1]]
            p = mask.bit_count() / n_worlds
            if p >= tau:
                next_level[cand] = mask
                all_qualifying[cand] = p
                stats.sets_qualifying += 1
        level = next_level

    labels = [int(t) for t in times]
    results: list[tuple[tuple[int, ...], float]] = []
    if use_certain_shortcut and certain_cols:
        # Every qualifying mined set extends with the certain times at
        # unchanged probability; the certain set itself qualifies with P=1.
        base = tuple(labels[c] for c in certain_cols)
        results.append((base, 1.0))
        stats.sets_qualifying += 1
        for cols, p in all_qualifying.items():
            merged = tuple(sorted(labels[c] for c in cols + certain_cols))
            results.append((merged, p))
    else:
        for cols, p in all_qualifying.items():
            results.append((tuple(labels[c] for c in cols), p))
    results.sort(key=lambda item: (len(item[0]), item[0]))
    return results, stats


def mine_objects(
    indicator: np.ndarray,
    times: np.ndarray,
    tau: float,
    max_candidates: int = 100_000,
    use_certain_shortcut: bool = False,
    native: bool = False,
) -> list[tuple[list[tuple[tuple[int, ...], float]], MiningStats]]:
    """Algorithm 1 for every object of one world pool: object ``o``'s
    ``(results, stats)`` as :func:`mine_world_masks` returns them for
    ``indicator[o]``, a boolean ``(|T|, worlds)`` matrix.

    ``indicator`` is ``(objects, |T|, worlds)`` — the engine's world-minor
    order — and the first object whose validations exceed the budget
    raises, as mining them in turn would.  ``native=True`` runs the C
    miner where it applies — at most 64 strictly increasing times (the
    engine's are sorted and unique); elsewhere the Python miner runs.
    """
    _check_tau(tau)
    times = np.asarray(times, dtype=np.intp)
    n_objects, n_times, n_worlds = indicator.shape
    if (
        native
        and n_times <= native_tier.MAX_MINED_TIMES
        and bool((np.diff(times) > 0).all())
    ):
        return _mine_native(
            indicator, times, tau, max_candidates, use_certain_shortcut
        )
    masks = world_masks(indicator)
    return [
        mine_world_masks(
            masks[o * n_times : (o + 1) * n_times],
            n_worlds,
            times,
            tau,
            max_candidates=max_candidates,
            use_certain_shortcut=use_certain_shortcut,
        )
        for o in range(n_objects)
    ]


def _mine_native(indicator, times, tau, max_candidates, use_certain_shortcut):
    """:func:`mine_objects` on the C miner: one call, then each qualifying
    set's times are its parent's plus one label."""
    n_worlds = indicator.shape[2]
    mined = native_tier.mine_levels(
        np.packbits(indicator, axis=-1), n_worlds, tau, max_candidates,
        use_certain_shortcut,
    )
    if mined.exceeded is not None:
        raise AprioriBudgetExceeded(_budget_message(max_candidates, mined.exceeded[1]))
    labels = times.tolist()
    sets: list[tuple[int, ...]] = []
    for parent, col in zip(mined.parent, mined.column):
        sets.append((labels[col],) if parent < 0 else sets[parent] + (labels[col],))
    out = []
    for o, certain in enumerate(mined.certain):
        lo, hi = mined.first[o], mined.first[o + 1]
        results = [(sets[r], mined.count[r] / n_worlds) for r in range(lo, hi)]
        if certain:
            # Every mined set extends with the certain times at unchanged
            # probability; the certain set itself qualifies with P=1.
            base = tuple(t for c, t in enumerate(labels) if certain >> c & 1)
            results = [(base, 1.0)] + [(tuple(sorted(s + base)), p) for s, p in results]
        out.append((results, MiningStats(mined.evaluated[o], len(results), mined.levels[o])))
    return out


def _check_tau(tau: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]; see Section 4.3 on tau -> 0")


def _budget_message(max_candidates: int, level: int) -> str:
    return (
        f"exceeded {max_candidates} candidate validations at level {level}; "
        "raise the budget or increase tau"
    )


def _join(level: dict[tuple[int, ...], int], k: int) -> list[tuple[int, ...]]:
    """Apriori join: merge (k-1)-sets sharing their first k-2 columns."""
    keys = sorted(level)
    out: list[tuple[int, ...]] = []
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            if a[:-1] != b[:-1]:
                break
            out.append(a + (b[-1],))
    return out


def _all_subsets_qualify(
    candidate: tuple[int, ...], level: dict[tuple[int, ...], int]
) -> bool:
    """Anti-monotone check: every (k-1)-subset must be in the last level."""
    return all(sub in level for sub in combinations(candidate, len(candidate) - 1))
