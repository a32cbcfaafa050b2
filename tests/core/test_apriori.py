"""Tests for the PCNN Apriori miner (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core.apriori import (
    AprioriBudgetExceeded,
    mine_objects,
    mine_timestamp_sets,
    mine_world_masks,
    world_masks,
)
from repro.markov import native
from repro.trajectory.nn import forall_prob_over_times
from tests.oracles import reference_mine


def brute_force(indicator, times, tau):
    """All qualifying subsets by exhaustive enumeration."""
    n = times.size
    out = {}
    for mask in range(1, 2**n):
        cols = [i for i in range(n) if mask >> i & 1]
        p = forall_prob_over_times(indicator, cols)
        if p >= tau:
            out[tuple(int(times[c]) for c in cols)] = p
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tau", [0.2, 0.5, 0.8])
    def test_matches_enumeration(self, seed, tau):
        rng = np.random.default_rng(seed)
        indicator = rng.uniform(size=(60, 5)) < 0.6
        times = np.array([10, 11, 12, 13, 14])
        mined, stats = mine_timestamp_sets(indicator, times, tau)
        got = dict(mined)
        expected = brute_force(indicator, times, tau)
        assert got == expected
        assert stats.sets_qualifying == len(expected)

    def test_all_true_indicator(self):
        indicator = np.ones((10, 3), dtype=bool)
        times = np.array([0, 1, 2])
        mined, _ = mine_timestamp_sets(indicator, times, 0.9)
        assert len(mined) == 7  # all non-empty subsets
        assert all(p == 1.0 for _, p in mined)

    def test_all_false_indicator(self):
        indicator = np.zeros((10, 3), dtype=bool)
        mined, stats = mine_timestamp_sets(indicator, np.arange(3), 0.1)
        assert mined == []


class TestValidation:
    def test_tau_zero_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            mine_timestamp_sets(np.ones((5, 2), dtype=bool), np.arange(2), 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mine_timestamp_sets(np.ones((5, 2), dtype=bool), np.arange(3), 0.5)

    def test_budget_enforced(self):
        indicator = np.ones((5, 14), dtype=bool)
        with pytest.raises(AprioriBudgetExceeded):
            mine_timestamp_sets(indicator, np.arange(14), 0.5, max_candidates=50)


class TestCertainShortcut:
    def test_certain_times_folded_into_results(self):
        rng = np.random.default_rng(1)
        indicator = np.column_stack(
            [
                np.ones(40, dtype=bool),  # certain column (t=0)
                rng.uniform(size=40) < 0.7,
                rng.uniform(size=40) < 0.7,
            ]
        )
        times = np.array([0, 1, 2])
        mined, _ = mine_timestamp_sets(
            indicator, times, 0.4, use_certain_shortcut=True
        )
        got = dict(mined)
        # Every returned set includes the certain time 0.
        assert all(0 in s for s in got)
        # Probabilities must agree with direct evaluation.
        full = brute_force(indicator, times, 0.4)
        for s, p in got.items():
            assert full[s] == pytest.approx(p)

    def test_shortcut_retains_all_maximal_sets(self):
        rng = np.random.default_rng(2)
        indicator = np.column_stack(
            [
                np.ones(50, dtype=bool),
                rng.uniform(size=50) < 0.6,
                rng.uniform(size=50) < 0.6,
                rng.uniform(size=50) < 0.6,
            ]
        )
        times = np.arange(4)
        tau = 0.3
        with_shortcut, _ = mine_timestamp_sets(
            indicator, times, tau, use_certain_shortcut=True
        )
        plain, _ = mine_timestamp_sets(indicator, times, tau)
        plain_sets = {frozenset(s) for s, _ in plain}
        maximal_plain = {
            s for s in plain_sets if not any(s < o for o in plain_sets)
        }
        shortcut_sets = {frozenset(s) for s, _ in with_shortcut}
        assert maximal_plain <= shortcut_sets


indicator_arrays = npst.arrays(
    dtype=bool,
    shape=st.tuples(st.integers(1, 30), st.integers(1, 6)),
)


class TestProperties:
    @given(indicator_arrays, st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_equals_brute_force(self, indicator, tau):
        times = np.arange(indicator.shape[1])
        mined, _ = mine_timestamp_sets(indicator, times, tau)
        assert dict(mined) == brute_force(indicator, times, tau)

    @given(indicator_arrays, st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_results_anti_monotone(self, indicator, tau):
        times = np.arange(indicator.shape[1])
        mined, _ = mine_timestamp_sets(indicator, times, tau)
        got = dict(mined)
        for s, p in got.items():
            for drop in range(len(s)):
                sub = s[:drop] + s[drop + 1 :]
                if sub:
                    assert sub in got
                    assert got[sub] >= p - 1e-12


# --------------------------------------------------------------------------
# the bitmap miner against the level-wise enumeration it replaced
# --------------------------------------------------------------------------
#: Around every byte and word boundary: ``np.packbits`` pads the last byte
#: with zero bits, which must never count as worlds.
WORLD_COUNTS = [1, 7, 8, 9, 63, 64, 65, 1000]


class TestBitmapMinerAgainstLevelwiseOracle:
    @staticmethod
    def _same(indicator, times, tau, **kwargs):
        got, got_stats = mine_timestamp_sets(indicator, times, tau, **kwargs)
        want, want_stats = reference_mine(indicator, times, tau, **kwargs)
        # Sets, order and probabilities to the last bit (``==`` on floats).
        assert got == want
        assert got_stats == want_stats
        return got, got_stats

    @pytest.mark.parametrize("shortcut", [False, True])
    @pytest.mark.parametrize("n", WORLD_COUNTS)
    def test_random_indicators(self, n, shortcut):
        rng = np.random.default_rng(n)
        for n_times in range(1, 13):
            density = rng.uniform(0.5, 0.98)
            indicator = rng.uniform(size=(n, n_times)) < density
            if n_times > 2:
                indicator[:, int(rng.integers(n_times))] = True  # a certain tic
            times = np.sort(rng.choice(40, size=n_times, replace=False))
            for tau in (1.0 / n, 0.5, 1.0):
                mined, stats = self._same(
                    indicator, times, tau, use_certain_shortcut=shortcut
                )
                if not shortcut:
                    assert dict(mined) == brute_force(indicator, times, tau)

    @pytest.mark.parametrize("shortcut", [False, True])
    @pytest.mark.parametrize("n", WORLD_COUNTS)
    def test_all_true_and_all_false(self, n, shortcut):
        for n_times in (1, 2, 5, 10):
            times = np.arange(n_times)
            ones = np.ones((n, n_times), dtype=bool)
            mined, stats = self._same(ones, times, 1.0, use_certain_shortcut=shortcut)
            if shortcut:  # every tic is certain: one set, nothing mined
                assert mined == [(tuple(range(n_times)), 1.0)]
                assert stats.sets_evaluated == n_times
            else:
                assert len(mined) == stats.sets_evaluated == 2**n_times - 1
                assert all(p == 1.0 for _, p in mined)
            mined, stats = self._same(
                ~ones, times, 1.0 / n, use_certain_shortcut=shortcut
            )
            assert mined == [] and stats.sets_evaluated == n_times

    @pytest.mark.parametrize("n", [9, 64, 1000])
    def test_padding_bits_never_count(self, n):
        """A lone world in the last, partly padded byte: supports are
        0 or 1 world, never the padding."""
        indicator = np.zeros((n, 4), dtype=bool)
        indicator[n - 1, :3] = True
        mined, _ = self._same(indicator, np.arange(4), 1.0 / n)
        assert len(mined) == 7 and all(p == 1.0 / n for _, p in mined)
        assert all(3 not in timeset for timeset, _ in mined)

    @pytest.mark.parametrize("shortcut", [False, True])
    def test_budget_raises_at_the_same_candidate_with_the_same_message(self, shortcut):
        rng = np.random.default_rng(4)
        indicator = rng.uniform(size=(65, 9)) < 0.9
        indicator[:, 2] = True
        times = np.arange(9)
        _, stats = mine_timestamp_sets(indicator, times, 0.2, use_certain_shortcut=shortcut)
        total = stats.sets_evaluated
        assert total > 60
        for budget in (9, 10, 37, total - 1, total, total + 1):
            kwargs = {"max_candidates": budget, "use_certain_shortcut": shortcut}
            if budget >= total:
                self._same(indicator, times, 0.2, **kwargs)
                continue
            with pytest.raises(AprioriBudgetExceeded) as want:
                reference_mine(indicator, times, 0.2, **kwargs)
            with pytest.raises(AprioriBudgetExceeded) as got:
                mine_timestamp_sets(indicator, times, 0.2, **kwargs)
            assert str(got.value) == str(want.value)

    def test_world_minor_indicator_columns(self):
        """The engine hands the miner columns of a world-minor indicator."""
        rng = np.random.default_rng(8)
        block = rng.uniform(size=(3, 6, 130)) < 0.8  # (objects, times, worlds)
        for col in range(3):
            self._same(block.transpose(2, 0, 1)[:, col, :], np.arange(6), 0.3)

    def test_empty_world_pool_rejected(self):
        with pytest.raises(ValueError, match="indicator"):
            mine_timestamp_sets(np.zeros((0, 3), dtype=bool), np.arange(3), 0.5)


class TestEngineLevelConsistency:
    def test_full_window_entry_is_the_forall_answer(self):
        """One object, query and epoch: the PCNN entry of the whole window
        *is* P∀NN over it — the same worlds counted by the bitmap miner
        and by the ∀ reduction, equal to the last bit."""
        from repro.core.evaluator import QueryEngine
        from repro.core.queries import Query, QueryRequest
        from tests.conftest import make_paper_example_db, make_random_world

        worlds = [
            (make_paper_example_db(), Query.from_point([0.0, 0.0]), (2, 3)),
            (make_random_world(seed=7, n_objects=5, span=8)[0], Query.from_point([5.0, 5.0]), (2, 3, 4, 5)),
        ]
        compared = 0
        for db, q, times in worlds:
            engine = QueryEngine(db, n_samples=333, seed=2)
            with engine.held_batch():
                forall = engine.evaluate(QueryRequest(q, times, "forall", 0.01))
                pcnn = engine.evaluate(QueryRequest(q, times, "pcnn", 0.01))
            whole = {e.object_id: e.probability for e in pcnn.entries if e.times == times}
            expected = {o: p for o, p in forall.probabilities.items() if p >= 0.01}
            assert whole == expected
            compared += len(whole)
        assert compared >= 2


# --------------------------------------------------------------------------
# the native level-wise miner against the bitmap miner
# --------------------------------------------------------------------------
#: The engine's selection: the C miner wherever the tier loads (on a
#: ``REPRO_DISABLE_NATIVE=1`` run these cases hold the Python fallback).
NATIVE = native.available()


def _per_object(indicator, times, tau, **kwargs):
    """``mine_world_masks`` object by object: the reference."""
    return [
        mine_world_masks(world_masks(column), indicator.shape[2], times, tau, **kwargs)
        for column in indicator
    ]


@pytest.mark.native
class TestNativeMinerAgainstBitmapMiner:
    """``mine_objects(native=True)`` — one C call over every object of a
    world pool — equals ``mine_world_masks`` per object: sets, order,
    probabilities to the last bit and every ``MiningStats`` count."""

    @staticmethod
    def _same(indicator, times, tau, **kwargs):
        got = mine_objects(indicator, times, tau, native=NATIVE, **kwargs)
        assert got == _per_object(indicator, times, tau, **kwargs)
        return got

    @pytest.mark.parametrize("shortcut", [False, True])
    @pytest.mark.parametrize("n", WORLD_COUNTS)
    def test_random_indicators(self, n, shortcut):
        rng = np.random.default_rng([n, shortcut])
        for n_times in range(1, 13):
            indicator = rng.uniform(size=(4, n_times, n)) < rng.uniform(0.5, 0.98, size=(4, 1, 1))
            if n_times > 2:
                indicator[1:, int(rng.integers(n_times))] = True  # a certain tic
            times = np.sort(rng.choice(40, size=n_times, replace=False))
            for tau in (1.0 / n, 0.5, 1.0):
                self._same(indicator, times, tau, use_certain_shortcut=shortcut)

    @pytest.mark.parametrize("shortcut", [False, True])
    @pytest.mark.parametrize("n", WORLD_COUNTS)
    def test_all_true_and_all_false(self, n, shortcut):
        for n_times in (1, 2, 5, 10):
            ones = np.ones((2, n_times, n), dtype=bool)
            for indicator, tau in ((ones, 1.0), (~ones, 1.0 / n)):
                self._same(indicator, np.arange(n_times), tau, use_certain_shortcut=shortcut)

    @pytest.mark.parametrize("shortcut", [False, True])
    def test_budget_raises_at_the_same_object_with_the_same_message(self, shortcut):
        rng = np.random.default_rng(4)
        indicator = rng.uniform(size=(3, 9, 65)) < 0.9
        indicator[:, 2] = True
        times = np.arange(9)
        # The budget binds on the second object, after the first mined.
        indicator[0] = False
        mined = _per_object(indicator, times, 0.2, use_certain_shortcut=shortcut)
        total = mined[1][1].sets_evaluated
        assert total > 60
        for budget in (9, 10, 37, total - 1, total, total + 1):
            kwargs = {"max_candidates": budget, "use_certain_shortcut": shortcut}
            if budget >= max(stats.sets_evaluated for _, stats in mined):
                self._same(indicator, times, 0.2, **kwargs)
                continue
            with pytest.raises(AprioriBudgetExceeded) as want:
                _per_object(indicator, times, 0.2, **kwargs)
            with pytest.raises(AprioriBudgetExceeded) as got:
                mine_objects(indicator, times, 0.2, native=NATIVE, **kwargs)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("n_times", [63, 64, 65])
    def test_widest_time_sets(self, n_times, monkeypatch):
        """Sparse supports keep the lattice small at 63–65 tics; past 64
        the Python miner runs (a set's columns no longer fit a word)."""
        rng = np.random.default_rng(n_times)
        indicator = np.zeros((3, n_times, 200), dtype=bool)
        for o in range(3):
            worlds = rng.choice(200, size=12, replace=False)
            indicator[o][:, worlds] = rng.uniform(size=(n_times, 12)) < 0.3
        indicator[2, -1] = True  # a certain last tic
        times = np.arange(n_times) * 3
        calls = []
        mine_levels = native.mine_levels
        monkeypatch.setattr(
            native, "mine_levels", lambda *a, **k: calls.append(1) or mine_levels(*a, **k)
        )
        for shortcut in (False, True):
            mined = self._same(indicator, times, 0.01, use_certain_shortcut=shortcut)
            assert any(len(ts) > 2 for sets, _ in mined for ts, _ in sets)
        assert len(calls) == (2 if NATIVE and n_times <= 64 else 0)

    def test_unsorted_times_take_the_python_miner(self, monkeypatch):
        monkeypatch.setattr(native, "mine_levels", None)  # never reached
        indicator = np.random.default_rng(1).uniform(size=(2, 4, 30)) < 0.7
        self._same(indicator, np.array([5, 2, 9, 7]), 0.3)

    def test_tau_is_checked_before_any_mining(self):
        with pytest.raises(ValueError, match="tau"):
            mine_objects(np.ones((1, 2, 5), dtype=bool), np.arange(2), 0.0, native=NATIVE)
