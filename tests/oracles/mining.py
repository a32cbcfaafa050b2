"""Algorithm 1 (PCNN timestamp-set mining) before it ran on bitmaps."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.core.apriori import AprioriBudgetExceeded, MiningStats
from repro.trajectory.nn import forall_prob_over_times


def reference_mine(indicator, times, tau, max_candidates=100_000, use_certain_shortcut=False):
    """Algorithm 1 validating every candidate by re-slicing the indicator
    (``forall_prob_over_times``) — the miner before it ran on bitmaps."""
    stats = MiningStats()
    n_cols = times.size
    col_probs = indicator.mean(axis=0)
    stats.sets_evaluated += n_cols
    certain = ()
    if use_certain_shortcut:
        certain = tuple(int(c) for c in np.flatnonzero(col_probs >= 1.0))
    level = {}
    for col in range(n_cols):
        if col not in certain and float(col_probs[col]) >= tau:
            level[(col,)] = float(col_probs[col])
            stats.sets_qualifying += 1
    qualifying = dict(level)
    k = 1
    while level:
        stats.max_level_reached = k
        k += 1
        keys = sorted(level)
        next_level = {}
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                if a[:-1] != b[:-1]:
                    break
                cand = a + (b[-1],)
                if not all(sub in level for sub in combinations(cand, k - 1)):
                    continue
                stats.sets_evaluated += 1
                if stats.sets_evaluated > max_candidates:
                    raise AprioriBudgetExceeded(
                        f"exceeded {max_candidates} candidate validations at level {k}; "
                        "raise the budget or increase tau"
                    )
                p = forall_prob_over_times(indicator, np.asarray(cand))
                if p >= tau:
                    next_level[cand] = p
                    stats.sets_qualifying += 1
        qualifying.update(next_level)
        level = next_level
    results = []
    if use_certain_shortcut and certain:
        results.append((tuple(int(times[c]) for c in certain), 1.0))
        stats.sets_qualifying += 1
        for cols, p in qualifying.items():
            results.append((tuple(sorted(int(times[c]) for c in cols + certain)), p))
    else:
        for cols, p in qualifying.items():
            results.append((tuple(int(times[c]) for c in cols), p))
    results.sort(key=lambda item: (len(item[0]), item[0]))
    return results, stats
