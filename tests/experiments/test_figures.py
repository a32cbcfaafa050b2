"""Smoke + shape tests for the figure experiments (micro scale).

The benchmarks run each figure at the ``tiny`` preset; here a bespoke
micro-scale keeps the whole module under a few seconds while checking the
result structure and key invariants of each experiment.
"""

import numpy as np
import pytest

from repro.experiments.config import Scale
from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    ablation_pruning,
    fig10_sampling,
    fig11_effectiveness,
    fig12_adaptation,
    fig14_pcnn_tau,
)

MICRO = Scale(
    name="micro",
    state_counts=(200, 400),
    default_states=400,
    branchings=(6.0, 8.0),
    default_branching=8.0,
    object_counts=(6, 12),
    default_objects=12,
    lifetime=12,
    horizon=30,
    obs_interval=4,
    query_interval=4,
    n_samples=60,
    n_queries=2,
    reference_samples=400,
    taus=(0.2, 0.8),
    default_tau=0.5,
    observation_counts=(2, 3),
    rejection_budget=20_000,
    fig10_obs_interval=2,
    effectiveness_lag=0.3,
    effectiveness_interval=3,
    error_window=8,
    taxi_blocks=5,
    taxi_core_blocks=2,
    taxi_obs_interval=4,
)


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {f"fig{n:02d}" for n in range(6, 15)}
        assert expected <= set(ALL_EXPERIMENTS)
        assert "ablation_pruning" in ALL_EXPERIMENTS


@pytest.mark.parametrize("name", ["fig06", "fig07", "fig08", "fig09", "fig13"])
def test_sweep_experiments_structure(name):
    result = ALL_EXPERIMENTS[name](MICRO, seed=0)
    assert result.figure == name
    assert result.scale == "micro"
    assert len(result.panels) == 2
    timing = result.panels[0]
    assert all(v >= 0 for series in timing.series.values() for v in series)
    counts = result.panels[1]
    for series in counts.series.values():
        assert all(v >= 0 for v in series)


class TestFig10:
    def test_fb_always_one(self):
        result = fig10_sampling(MICRO, seed=0)
        panel = result.panels[0]
        assert all(v == 1.0 for v in panel.series["FB (Algorithm 2)"])

    def test_rejection_costs_at_least_one(self):
        result = fig10_sampling(MICRO, seed=1)
        panel = result.panels[0]
        assert all(v >= 1.0 for v in panel.series["TS1 (full rejection)"])
        assert all(v >= 1.0 for v in panel.series["TS2 (segment-wise)"])


class TestFig11:
    def test_panels_and_metrics(self):
        result = fig11_effectiveness(MICRO, seed=0)
        assert {p.title for p in result.panels} == {"P∀NN", "P∃NN"}
        for panel in result.panels:
            assert panel.x_values == ["bias", "mae", "rmse", "worst"]
            assert set(panel.series) == {"SA", "SS"}
            # mae <= rmse <= worst for any error sample.
            for label in ("SA", "SS"):
                mae = panel.series[label][1]
                rmse = panel.series[label][2]
                worst = panel.series[label][3]
                assert mae <= rmse + 1e-12 <= worst + 1e-9


class TestFig12:
    def test_all_variants_present(self):
        result = fig12_adaptation(MICRO, seed=0)
        panel = result.panels[0]
        assert set(panel.series) == {"NO", "F", "FB", "U", "FBU"}
        # Error at the first observation is zero for every variant.
        for series in panel.series.values():
            assert series[0] == pytest.approx(0.0, abs=1e-12)

    def test_fb_never_worse_than_no(self):
        result = fig12_adaptation(MICRO, seed=1)
        panel = result.panels[0]
        fb = np.asarray(panel.series["FB"])
        no = np.asarray(panel.series["NO"])
        assert fb.mean() <= no.mean() + 1e-9


class TestFig14:
    def test_ts_constant_and_counts_monotone(self):
        result = fig14_pcnn_tau(MICRO, seed=0)
        timing = result.panel("CPU time (s)")
        counts = result.panel("Timestamp Sets")
        assert len(set(timing.series["TS"])) == 1
        q = counts.series["#qualifying"]
        assert q[-1] <= q[0] + 1e-9


class TestAblations:
    def test_pruning_reduces_refined_objects(self):
        result = ablation_pruning(MICRO, seed=0)
        panel = result.panels[0]
        refined = panel.series["objects refined"]
        assert refined[0] <= refined[1]  # with pruning <= without
