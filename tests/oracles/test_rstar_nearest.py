"""Tests for best-first nearest-entry search on the R*-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Rect, mindist_point_rect
from tests.oracles.rstar import RStarTree


def random_items(n, rng, extent=100.0, size=4.0):
    lows = rng.uniform(0, extent, size=(n, 2))
    spans = rng.uniform(0, size, size=(n, 2))
    return [(Rect(tuple(lo), tuple(lo + sp)), i) for i, (lo, sp) in enumerate(zip(lows, spans))]


def brute_force_nearest(items, point, k):
    dists = sorted(
        (float(mindist_point_rect(np.asarray(point), rect)), data)
        for rect, data in items
    )
    return dists[:k]


class TestNearest:
    def test_empty_tree(self):
        assert RStarTree().nearest([0.0, 0.0], 3) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RStarTree().nearest([0.0, 0.0], 0)

    def test_single_entry(self):
        tree = RStarTree()
        tree.insert(Rect((1.0, 1.0), (2.0, 2.0)), "x")
        hits = tree.nearest([0.0, 0.0], 1)
        assert len(hits) == 1
        assert hits[0][1].data == "x"
        assert hits[0][0] == pytest.approx(np.sqrt(2.0))

    def test_k_exceeds_size(self):
        tree = RStarTree()
        tree.insert(Rect((0.0, 0.0), (1.0, 1.0)), "a")
        tree.insert(Rect((5.0, 5.0), (6.0, 6.0)), "b")
        hits = tree.nearest([0.0, 0.0], 10)
        assert [h[1].data for h in hits] == ["a", "b"]

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, k):
        rng = np.random.default_rng(k)
        items = random_items(300, rng)
        tree = RStarTree.bulk_load(items)
        for _ in range(15):
            point = rng.uniform(0, 100, 2)
            got = tree.nearest(point, k)
            expected = brute_force_nearest(items, point, k)
            assert [g[0] for g in got] == pytest.approx([e[0] for e in expected])

    def test_results_sorted(self):
        rng = np.random.default_rng(9)
        items = random_items(150, rng)
        tree = RStarTree.bulk_load(items)
        hits = tree.nearest([50.0, 50.0], 12)
        dists = [h[0] for h in hits]
        assert dists == sorted(dists)

    def test_after_incremental_inserts(self):
        rng = np.random.default_rng(4)
        items = random_items(200, rng)
        tree = RStarTree(max_entries=6)
        for rect, data in items:
            tree.insert(rect, data)
        point = [25.0, 75.0]
        got = tree.nearest(point, 5)
        expected = brute_force_nearest(items, point, 5)
        assert [g[0] for g in got] == pytest.approx([e[0] for e in expected])

    @given(
        st.lists(
            st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
            min_size=1,
            max_size=60,
        ),
        st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0, 50, allow_nan=False)),
        st.integers(1, 5),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_nearest_distance_optimal(self, corners, query, k):
        items = [
            (Rect((x, y), (x + 1.0, y + 1.0)), i) for i, (x, y) in enumerate(corners)
        ]
        tree = RStarTree(max_entries=4)
        for rect, data in items:
            tree.insert(rect, data)
        got = tree.nearest(list(query), k)
        expected = brute_force_nearest(items, list(query), k)
        assert [g[0] for g in got] == pytest.approx([e[0] for e in expected])
