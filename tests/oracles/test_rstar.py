"""Tests for the R*-tree: structural invariants and query correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Rect
from tests.oracles.rstar import RStarTree


def random_rects(n, rng, extent=100.0, size=5.0, ndim=2):
    lows = rng.uniform(0, extent, size=(n, ndim))
    spans = rng.uniform(0, size, size=(n, ndim))
    return [Rect(tuple(lo), tuple(lo + sp)) for lo, sp in zip(lows, spans)]


def brute_force_search(items, window):
    return {data for rect, data in items if rect.intersects(window)}


class TestInsertion:
    def test_empty_tree(self):
        tree = RStarTree()
        assert len(tree) == 0
        assert tree.search(Rect((0.0, 0.0), (1.0, 1.0))) == []

    def test_single_insert_and_hit(self):
        tree = RStarTree()
        tree.insert(Rect((0.0, 0.0), (1.0, 1.0)), "a")
        hits = tree.search(Rect((0.5, 0.5), (2.0, 2.0)))
        assert [h.data for h in hits] == ["a"]

    def test_single_insert_and_miss(self):
        tree = RStarTree()
        tree.insert(Rect((0.0, 0.0), (1.0, 1.0)), "a")
        assert tree.search(Rect((2.0, 2.0), (3.0, 3.0))) == []

    def test_min_capacity_guard(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.9)

    @pytest.mark.parametrize("n", [10, 100, 500])
    def test_inserted_search_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        items = [(r, i) for i, r in enumerate(random_rects(n, rng))]
        tree = RStarTree(max_entries=8)
        for rect, data in items:
            tree.insert(rect, data)
        tree.check_invariants()
        for _ in range(20):
            window = random_rects(1, rng, size=30.0)[0]
            got = {e.data for e in tree.search(window)}
            assert got == brute_force_search(items, window)

    def test_invariants_after_many_inserts(self):
        rng = np.random.default_rng(5)
        tree = RStarTree(max_entries=6)
        for i, rect in enumerate(random_rects(300, rng)):
            tree.insert(rect, i)
            if i % 50 == 49:
                tree.check_invariants()
        assert len(tree) == 300

    def test_duplicate_rects_all_retrievable(self):
        tree = RStarTree(max_entries=4)
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        for i in range(40):
            tree.insert(rect, i)
        hits = tree.search(rect)
        assert {h.data for h in hits} == set(range(40))

    def test_height_grows_logarithmically(self):
        rng = np.random.default_rng(2)
        tree = RStarTree(max_entries=8)
        for i, rect in enumerate(random_rects(400, rng)):
            tree.insert(rect, i)
        # ceil(log_m(400)) with min fill 0.4*8=3 -> height at most ~6.
        assert 2 <= tree.height() <= 7


class TestBulkLoad:
    @pytest.mark.parametrize("n", [0, 1, 15, 16, 17, 200, 1000])
    def test_bulk_load_sizes(self, n):
        rng = np.random.default_rng(n + 1)
        items = [(r, i) for i, r in enumerate(random_rects(max(n, 1), rng))][:n]
        tree = RStarTree.bulk_load(items, max_entries=16)
        assert len(tree) == n
        assert sum(1 for _ in tree.entries()) == n

    def test_bulk_load_search_matches_brute_force(self):
        rng = np.random.default_rng(11)
        items = [(r, i) for i, r in enumerate(random_rects(700, rng))]
        tree = RStarTree.bulk_load(items, max_entries=16)
        for _ in range(25):
            window = random_rects(1, rng, size=25.0)[0]
            got = {e.data for e in tree.search(window)}
            assert got == brute_force_search(items, window)

    def test_bulk_load_3d(self):
        rng = np.random.default_rng(3)
        items = [(r, i) for i, r in enumerate(random_rects(300, rng, ndim=3))]
        tree = RStarTree.bulk_load(items, max_entries=8)
        window = random_rects(1, rng, size=40.0, ndim=3)[0]
        got = {e.data for e in tree.search(window)}
        assert got == brute_force_search(items, window)

    def test_bulk_load_balanced(self):
        rng = np.random.default_rng(4)
        items = [(r, i) for i, r in enumerate(random_rects(500, rng))]
        tree = RStarTree.bulk_load(items, max_entries=16)
        # All leaves at the same depth (checked via traversal).
        depths = set()

        def walk(node, d):
            if node.leaf:
                depths.add(d)
            else:
                for c in node.children:
                    walk(c, d + 1)

        walk(tree.root, 0)
        assert len(depths) == 1


class TestTraversal:
    def test_traverse_pruned_filters_subtrees(self):
        rng = np.random.default_rng(7)
        items = [(r, i) for i, r in enumerate(random_rects(200, rng))]
        tree = RStarTree.bulk_load(items)
        window = Rect((0.0, 0.0), (30.0, 30.0))
        got = {
            e.data for e in tree.traverse_pruned(lambda r: r.intersects(window))
        }
        assert got == brute_force_search(items, window)

    def test_entries_iterates_everything(self):
        rng = np.random.default_rng(8)
        items = [(r, i) for i, r in enumerate(random_rects(64, rng))]
        tree = RStarTree.bulk_load(items)
        assert {e.data for e in tree.entries()} == set(range(64))


class TestPropertyBased:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 100, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_equals_brute_force(self, raw, seed):
        items = [
            (Rect((x, y), (x + w, y + h)), i)
            for i, (x, y, w, h) in enumerate(raw)
        ]
        tree = RStarTree(max_entries=5)
        for rect, data in items:
            tree.insert(rect, data)
        tree.check_invariants()
        rng = np.random.default_rng(seed)
        lo = rng.uniform(0, 100, 2)
        hi = lo + rng.uniform(0, 50, 2)
        window = Rect(tuple(lo), tuple(hi))
        assert {e.data for e in tree.search(window)} == brute_force_search(
            items, window
        )
