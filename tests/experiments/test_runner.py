"""Tests for the CLI runner."""

import pytest

from repro.experiments.runner import main


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "fig14" in out

    def test_requires_selection(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["--figure", "fig10", "--scale", "galactic"])

    def test_runs_one_experiment(self, capsys):
        assert main(["--figure", "ablation_pruning", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "ablation_pruning" in out
        assert "wall time" in out
