"""Tests for R*-tree deletion and tree condensation."""

import numpy as np
import pytest

from repro.spatial.geometry import Rect
from tests.oracles.rstar import RStarTree


def random_items(n, seed):
    rng = np.random.default_rng(seed)
    lows = rng.uniform(0, 100, size=(n, 2))
    spans = rng.uniform(0, 5, size=(n, 2))
    return [(Rect(tuple(lo), tuple(lo + sp)), i) for i, (lo, sp) in enumerate(zip(lows, spans))]


class TestDelete:
    def test_delete_existing(self):
        tree = RStarTree()
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        tree.insert(rect, "x")
        assert tree.delete(rect, "x")
        assert len(tree) == 0
        assert tree.search(rect) == []

    def test_delete_missing_returns_false(self):
        tree = RStarTree()
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        tree.insert(rect, "x")
        assert not tree.delete(rect, "y")
        assert not tree.delete(Rect((5.0, 5.0), (6.0, 6.0)), "x")
        assert len(tree) == 1

    def test_delete_one_of_duplicates(self):
        tree = RStarTree()
        rect = Rect((0.0, 0.0), (1.0, 1.0))
        tree.insert(rect, "a")
        tree.insert(rect, "b")
        assert tree.delete(rect, "a")
        remaining = [e.data for e in tree.search(rect)]
        assert remaining == ["b"]

    def test_delete_all_incrementally(self):
        items = random_items(120, seed=0)
        tree = RStarTree(max_entries=6)
        for rect, data in items:
            tree.insert(rect, data)
        rng = np.random.default_rng(1)
        order = rng.permutation(len(items))
        for count, idx in enumerate(order, start=1):
            rect, data = items[idx]
            assert tree.delete(rect, data), f"failed to delete item {data}"
            assert len(tree) == len(items) - count
        assert len(tree) == 0

    def test_invariants_maintained_during_deletions(self):
        items = random_items(200, seed=2)
        tree = RStarTree(max_entries=8)
        for rect, data in items:
            tree.insert(rect, data)
        rng = np.random.default_rng(3)
        to_delete = rng.permutation(len(items))[:150]
        kept = set(range(len(items))) - set(int(i) for i in to_delete)
        for i, idx in enumerate(to_delete):
            rect, data = items[idx]
            assert tree.delete(rect, data)
            if i % 25 == 24:
                tree.check_invariants()
        tree.check_invariants()
        survivors = {e.data for e in tree.entries()}
        assert survivors == kept

    def test_search_correct_after_mixed_workload(self):
        items = random_items(150, seed=4)
        tree = RStarTree(max_entries=5)
        live: dict[int, Rect] = {}
        rng = np.random.default_rng(5)
        for rect, data in items:
            tree.insert(rect, data)
            live[data] = rect
            if rng.uniform() < 0.4 and live:
                victim = int(rng.choice(list(live)))
                assert tree.delete(live[victim], victim)
                del live[victim]
        window = Rect((20.0, 20.0), (80.0, 80.0))
        got = {e.data for e in tree.search(window)}
        expected = {d for d, r in live.items() if r.intersects(window)}
        assert got == expected

    def test_root_shrinks(self):
        items = random_items(100, seed=6)
        tree = RStarTree(max_entries=4)
        for rect, data in items:
            tree.insert(rect, data)
        tall = tree.height()
        for rect, data in items[:96]:
            tree.delete(rect, data)
        assert tree.height() <= tall
        tree.check_invariants()

    def test_condense_reinserts_all_orphans(self):
        """Dissolving underfull nodes must re-insert every orphaned entry:
        nothing is lost, nothing duplicated, and invariants hold at every
        step of a deletion sweep that forces repeated condensation."""
        items = random_items(90, seed=8)
        tree = RStarTree(max_entries=4)  # small fanout: condense fires often
        for rect, data in items:
            tree.insert(rect, data)
        alive = {data: rect for rect, data in items}
        rng = np.random.default_rng(9)
        for idx in rng.permutation(len(items)):
            rect, data = items[idx]
            assert tree.delete(rect, data)
            del alive[data]
            tree.check_invariants()
            assert {e.data for e in tree.entries()} == set(alive)

    def test_nearest_after_deletions(self):
        items = random_items(80, seed=7)
        tree = RStarTree(max_entries=5)
        for rect, data in items:
            tree.insert(rect, data)
        for rect, data in items[:40]:
            tree.delete(rect, data)
        point = [50.0, 50.0]
        got = tree.nearest(point, 3)
        remaining = items[40:]
        from repro.spatial.geometry import mindist_point_rect

        expected = sorted(
            float(mindist_point_rect(np.asarray(point), rect)) for rect, _ in remaining
        )[:3]
        assert [g[0] for g in got] == pytest.approx(expected)


class TestMixedWorkloadInvariants:
    """Interleaved insert/delete traffic: the structural invariants (node
    fill, balance, MBR containment, parent pointers, size accounting) must
    hold throughout, not just at quiescence."""

    @pytest.mark.parametrize("max_entries", [4, 8])
    @pytest.mark.parametrize("seed", [10, 11])
    def test_invariants_throughout_churn(self, max_entries, seed):
        items = random_items(250, seed=seed)
        tree = RStarTree(max_entries=max_entries)
        live: dict[int, Rect] = {}
        rng = np.random.default_rng(1000 + seed)
        for step, (rect, data) in enumerate(items):
            tree.insert(rect, data)
            live[data] = rect
            # Delete roughly half the live set as we go, in random order.
            while live and rng.uniform() < 0.35:
                victim = int(rng.choice(list(live)))
                assert tree.delete(live[victim], victim)
                del live[victim]
            if step % 10 == 9:
                tree.check_invariants()
        tree.check_invariants()
        assert len(tree) == len(live)
        assert {e.data for e in tree.entries()} == set(live)

    def test_delete_to_empty_and_reuse(self):
        """A tree emptied by deletes must be indistinguishable from fresh:
        the degenerate root shrinks back to a leaf and later inserts work."""
        items = random_items(60, seed=12)
        tree = RStarTree(max_entries=4)
        for rect, data in items:
            tree.insert(rect, data)
        for rect, data in items:
            assert tree.delete(rect, data)
        assert len(tree) == 0
        assert tree.height() == 1
        tree.check_invariants()
        for rect, data in items[:20]:
            tree.insert(rect, data)
        tree.check_invariants()
        assert {e.data for e in tree.entries()} == {d for _, d in items[:20]}


class TestBulkLoadEquivalence:
    """STR bulk loading and incremental insertion build different trees but
    must answer identical queries over the same entry set."""

    def _pair(self, n, seed, max_entries=8, ndim=2):
        rng = np.random.default_rng(seed)
        lows = rng.uniform(0, 100, size=(n, ndim))
        spans = rng.uniform(0.1, 4.0, size=(n, ndim))
        items = [
            (Rect(tuple(lo), tuple(lo + sp)), i)
            for i, (lo, sp) in enumerate(zip(lows, spans))
        ]
        bulk = RStarTree.bulk_load(items, max_entries=max_entries)
        incremental = RStarTree(max_entries=max_entries)
        for rect, data in items:
            incremental.insert(rect, data)
        bulk.check_invariants()
        incremental.check_invariants()
        return bulk, incremental, rng

    @pytest.mark.parametrize("n", [17, 33, 65, 129, 257, 1000])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_bulk_load_respects_min_fill(self, n, ndim):
        """Regression: STR used to pack full chunks with a small tail, so
        sizes one past a multiple of the fanout produced underfull nodes."""
        rng = np.random.default_rng(n * ndim)
        lows = rng.uniform(0, 100, size=(n, ndim))
        items = [(Rect(tuple(lo), tuple(lo + 1.0)), i) for i, lo in enumerate(lows)]
        tree = RStarTree.bulk_load(items, max_entries=16)
        tree.check_invariants()
        assert len(tree) == n

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_search_windows_identical(self, ndim):
        bulk, incremental, rng = self._pair(400, seed=13, ndim=ndim)
        for _ in range(25):
            lo = rng.uniform(0, 80, size=ndim)
            hi = lo + rng.uniform(1, 30, size=ndim)
            window = Rect(tuple(lo), tuple(hi))
            assert {e.data for e in bulk.search(window)} == {
                e.data for e in incremental.search(window)
            }

    def test_nearest_identical(self):
        bulk, incremental, rng = self._pair(300, seed=14)
        for _ in range(25):
            point = rng.uniform(0, 100, size=2)
            k = int(rng.integers(1, 8))
            got_b = bulk.nearest(point, k)
            got_i = incremental.nearest(point, k)
            # Continuous random rects: distance ties are measure-zero, so
            # both the distances and the entry identities must agree.
            assert [g[0] for g in got_b] == pytest.approx([g[0] for g in got_i])
            assert [g[1].data for g in got_b] == [g[1].data for g in got_i]

    def test_nearest_identical_after_deletions(self):
        """Equivalence must survive condensation: delete the same half from
        both trees, then re-compare."""
        bulk, incremental, rng = self._pair(200, seed=15)
        doomed = rng.permutation(200)[:100]
        victims = {int(d) for d in doomed}
        rects = {e.data: e.rect for e in bulk.entries()}
        for data in sorted(victims):
            assert bulk.delete(rects[data], data)
            assert incremental.delete(rects[data], data)
        bulk.check_invariants()
        incremental.check_invariants()
        for _ in range(15):
            point = rng.uniform(0, 100, size=2)
            got_b = bulk.nearest(point, 5)
            got_i = incremental.nearest(point, 5)
            assert [g[0] for g in got_b] == pytest.approx([g[0] for g in got_i])
            assert [g[1].data for g in got_b] == [g[1].data for g in got_i]
