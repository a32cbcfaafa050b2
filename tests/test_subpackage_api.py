"""Tests for subpackage re-export surfaces."""

import importlib

import pytest

SUBPACKAGES = [
    "repro.analysis",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.markov",
    "repro.satreduction",
    "repro.spatial",
    "repro.statespace",
    "repro.stream",
    "repro.trajectory",
]


class TestSubpackageExports:
    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__, f"{package} missing docstring"
        for name in mod.__all__:
            assert getattr(mod, name) is not None, f"{package}.{name} missing"

    def test_lazy_ust_tree_export(self):
        import repro.spatial
        from repro.spatial import PruningResult, USTTree

        assert USTTree is not None and PruningResult is not None
        # The R*-tree and its entry key are oracle code (tests/oracles/).
        for gone in ("RStarTree", "Entry", "SegmentKey"):
            assert gone not in repro.spatial.__all__
            assert not hasattr(repro.spatial, gone)

    def test_lazy_unknown_attribute_raises(self):
        import repro.spatial

        with pytest.raises(AttributeError):
            repro.spatial.NoSuchThing

    def test_convenience_paths_equal_canonical(self):
        from repro.core import QueryEngine as A
        from repro.core.evaluator import QueryEngine as B

        assert A is B
