"""An R*-tree (Beckmann et al., SIGMOD 1990) built from scratch.

The UST-tree of the paper (Section 6, [25]) indexes one spatio-temporal
minimum bounding rectangle per inter-observation segment of every uncertain
object with an R*-tree.  No spatial index library is assumed; this module
implements insertion with the R* split heuristics (choose-split-axis by
margin, choose-split-index by overlap, forced reinsertion) plus an STR bulk
loader, window queries and generic traversal hooks.

The tree is dimension-agnostic: the UST-tree uses 3-d boxes
``(x, y, time)`` while tests also exercise 2-d boxes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.spatial.geometry import Rect, mindist_point_rect

__all__ = ["RStarTree", "Entry"]


@dataclass
class Entry:
    """A leaf payload: a bounding rect and an opaque data object."""

    rect: Rect
    data: Any


class _Node:
    __slots__ = ("leaf", "entries", "children", "parent", "_mbr")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.entries: list[Entry] = []  # used when leaf
        self.children: list[_Node] = []  # used when not leaf
        self.parent: _Node | None = None
        self._mbr: Rect | None = None  # cache, invalidated on mutation

    def rects(self) -> list[Rect]:
        if self.leaf:
            return [e.rect for e in self.entries]
        return [c.mbr() for c in self.children]

    def mbr(self) -> Rect:
        if self._mbr is None:
            self._mbr = Rect.union_all(self.rects())
        return self._mbr

    def invalidate_up(self) -> None:
        """Drop cached MBRs on the path to the root after a mutation."""
        node: _Node | None = self
        while node is not None:
            node._mbr = None
            node = node.parent

    def __len__(self) -> int:
        return len(self.entries) if self.leaf else len(self.children)


@dataclass
class _SplitCandidate:
    margin: float
    overlap: float
    volume: float
    first: list
    second: list


class RStarTree:
    """R*-tree over :class:`~repro.spatial.geometry.Rect` keys.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``; nodes split when they would exceed it.
    min_fill:
        Minimum fill fraction ``m / M`` (the R* paper recommends 0.4).
    reinsert_fraction:
        Fraction ``p`` of entries re-inserted on first overflow per level
        (R* recommends 0.3).
    """

    def __init__(
        self,
        max_entries: int = 16,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError("min_fill must be in (0, 0.5]")
        self.max_entries = max_entries
        self.min_entries = max(2, int(round(max_entries * min_fill)))
        self.reinsert_count = max(1, int(round(max_entries * reinsert_fraction)))
        self.root = _Node(leaf=True)
        self._size = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def insert(self, rect: Rect, data: Any) -> None:
        """Insert one entry; triggers R* reinsertion/splitting as needed."""
        self._insert_entry(Entry(rect, data), set())
        self._size += 1

    @staticmethod
    def bulk_load(
        items: Sequence[tuple[Rect, Any]],
        max_entries: int = 16,
        min_fill: float = 0.4,
    ) -> "RStarTree":
        """Sort-Tile-Recursive bulk loading.

        Produces a packed tree much faster than repeated insertion; used
        when building a UST-tree over a whole database at once.
        """
        tree = RStarTree(max_entries=max_entries, min_fill=min_fill)
        if not items:
            return tree
        leaves: list[_Node] = []
        for chunk in _str_partition(list(items), max_entries):
            node = _Node(leaf=True)
            node.entries = [Entry(r, d) for r, d in chunk]
            leaves.append(node)
        level = leaves
        while len(level) > 1:
            parents: list[_Node] = []
            keyed = [(n.mbr(), n) for n in level]
            for chunk in _str_partition(keyed, max_entries):
                node = _Node(leaf=False)
                node.children = [n for _, n in chunk]
                for child in node.children:
                    child.parent = node
                parents.append(node)
            level = parents
        tree.root = level[0]
        tree._size = len(items)
        return tree

    def insert_many(self, items: Sequence[tuple[Rect, Any]]) -> None:
        """Insert a batch of entries through the normal R* insertion path.

        Used by incremental index maintenance (one object's recomputed
        segments re-entering the UST-tree); unlike :meth:`bulk_load` this
        grows an existing tree in place.
        """
        for rect, data in items:
            self.insert(rect, data)

    def delete_many(self, items: Sequence[tuple[Rect, Any]]) -> int:
        """Delete a batch of ``(rect, data)`` entries; returns the count
        actually removed (entries not found are skipped, not an error)."""
        removed = 0
        for rect, data in items:
            if self.delete(rect, data):
                removed += 1
        return removed

    def delete(self, rect: Rect, data: Any) -> bool:
        """Remove the entry matching ``(rect, data)``; returns success.

        Standard R-tree deletion: locate the leaf, remove the entry,
        condense the tree (underfull nodes are dissolved and their entries
        re-inserted), and shrink the root when it degenerates to a single
        child.
        """
        leaf = self._find_leaf(self.root, rect, data)
        if leaf is None:
            return False
        for i, entry in enumerate(leaf.entries):
            if entry.rect == rect and entry.data == data:
                del leaf.entries[i]
                break
        leaf.invalidate_up()
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(self, node: _Node, rect: Rect, data: Any) -> _Node | None:
        if node.leaf:
            for entry in node.entries:
                if entry.rect == rect and entry.data == data:
                    return node
            return None
        for child in node.children:
            if child.mbr().contains(rect):
                found = self._find_leaf(child, rect, data)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        """Dissolve underfull ancestors, re-inserting their entries."""
        orphans: list[Entry] = []
        current = node
        while current.parent is not None:
            parent = current.parent
            if len(current) < self.min_entries:
                parent.children.remove(current)
                parent.invalidate_up()
                orphans.extend(self._collect_entries(current))
            current = parent
        # Shrink a degenerate root.
        while not self.root.leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
        if not self.root.leaf and not self.root.children:
            self.root = _Node(leaf=True)
        # Orphaned entries re-enter through the normal insertion path.
        for entry in orphans:
            self._insert_entry(entry, set())

    def _collect_entries(self, node: _Node) -> list[Entry]:
        if node.leaf:
            return list(node.entries)
        out: list[Entry] = []
        for child in node.children:
            out.extend(self._collect_entries(child))
        return out

    def nearest(self, point: Sequence[float], k: int = 1) -> list[tuple[float, Entry]]:
        """The ``k`` entries with smallest mindist to ``point``, best-first.

        Classic branch-and-bound over the tree: a priority queue ordered by
        mindist expands nodes only while they can still beat the current
        k-th best, so the search touches a small fraction of the tree.
        Returns ``(distance, entry)`` pairs sorted by distance.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._size == 0:
            return []
        pt = np.asarray(point, dtype=float)
        counter = 0  # heap tiebreaker: entries/nodes are not comparable
        heap: list[tuple[float, int, object]] = [
            (float(mindist_point_rect(pt, self.root.mbr())), counter, self.root)
        ]
        out: list[tuple[float, Entry]] = []
        while heap and len(out) < k:
            dist, _, item = heapq.heappop(heap)
            if isinstance(item, Entry):
                out.append((dist, item))
                continue
            node: _Node = item
            if node.leaf:
                for entry in node.entries:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (float(mindist_point_rect(pt, entry.rect)), counter, entry),
                    )
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        heap,
                        (float(mindist_point_rect(pt, child.mbr())), counter, child),
                    )
        return out

    def search(self, window: Rect) -> list[Entry]:
        """All entries whose rect intersects ``window``."""
        out: list[Entry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(e for e in node.entries if e.rect.intersects(window))
            else:
                stack.extend(
                    c for c in node.children if c.mbr().intersects(window)
                )
        return out

    def traverse_pruned(
        self, descend: Callable[[Rect], bool]
    ) -> Iterator[Entry]:
        """Yield entries of subtrees for which ``descend(mbr)`` is true.

        Generic hook used by the UST-tree to run dmin/dmax pruning on inner
        nodes before reaching leaf entries.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry in node.entries:
                    if descend(entry.rect):
                        yield entry
            else:
                stack.extend(c for c in node.children if descend(c.mbr()))

    def entries(self) -> Iterator[Entry]:
        """Iterate over all leaf entries."""
        yield from self.traverse_pruned(lambda _rect: True)

    def height(self) -> int:
        h = 1
        node = self.root
        while not node.leaf:
            node = node.children[0]
            h += 1
        return h

    def check_invariants(self) -> None:
        """Validate structural invariants (tests call this after mutations)."""
        self._check_node(self.root, is_root=True)
        count = sum(1 for _ in self.entries())
        if count != self._size:
            raise AssertionError(f"size mismatch: counted {count}, tracked {self._size}")

    # ------------------------------------------------------------------
    # insertion machinery
    # ------------------------------------------------------------------
    def _insert_entry(self, entry: Entry, reinserted_levels: set[int]) -> None:
        leaf = self._choose_leaf(entry.rect)
        leaf.entries.append(entry)
        leaf.invalidate_up()
        self._handle_overflow(leaf, level=self._level_of(leaf), reinserted=reinserted_levels)

    def _level_of(self, node: _Node) -> int:
        level = 0
        while node.parent is not None:
            node = node.parent
            level += 1
        return level

    def _choose_leaf(self, rect: Rect) -> _Node:
        """R* subtree choice, vectorized over a node's children.

        Same keys as the classic formulation — (overlap enlargement,
        volume enlargement, volume) above leaves, (volume enlargement,
        volume) higher up — computed for all children in one numpy pass
        instead of per-child ``Rect`` arithmetic (the dominant cost of
        incremental index maintenance), with ``lexsort``'s stable order
        reproducing ``min()``'s first-minimum tie-break.
        """
        rect_lo = np.asarray(rect.lo)
        rect_hi = np.asarray(rect.hi)
        node = self.root
        while not node.leaf:
            children = node.children
            los = np.array([c.mbr().lo for c in children])
            his = np.array([c.mbr().hi for c in children])
            union_lo = np.minimum(los, rect_lo)
            union_hi = np.maximum(his, rect_hi)
            volume = np.prod(his - los, axis=1)
            enlargement = np.prod(union_hi - union_lo, axis=1) - volume
            if children[0].leaf:
                overlap = _overlap_deltas(los, his, union_lo, union_hi)
                best = int(np.lexsort((volume, enlargement, overlap))[0])
            else:
                best = int(np.lexsort((volume, enlargement))[0])
            node = children[best]
        return node

    def _handle_overflow(
        self, node: _Node, level: int, reinserted: set[int]
    ) -> None:
        if len(node) <= self.max_entries:
            return
        if node.leaf and node.parent is not None and level not in reinserted:
            reinserted.add(level)
            self._reinsert(node, reinserted)
        else:
            self._split(node, reinserted)

    def _reinsert(self, node: _Node, reinserted: set[int]) -> None:
        """Forced reinsertion: re-add the p entries farthest from the center."""
        assert node.leaf, "reinsertion is only triggered for leaves here"
        center = node.mbr().center
        node.entries.sort(
            key=lambda e: float(np.sum((e.rect.center - center) ** 2)),
            reverse=True,
        )
        spill = node.entries[: self.reinsert_count]
        node.entries = node.entries[self.reinsert_count :]
        node.invalidate_up()
        for entry in spill:
            leaf = self._choose_leaf(entry.rect)
            leaf.entries.append(entry)
            leaf.invalidate_up()
            self._handle_overflow(leaf, self._level_of(leaf), reinserted)

    def _split(self, node: _Node, reinserted: set[int]) -> None:
        items = node.entries if node.leaf else node.children
        rect_of = (lambda e: e.rect) if node.leaf else (lambda c: c.mbr())
        first, second = _rstar_split(items, rect_of, self.min_entries)

        sibling = _Node(leaf=node.leaf)
        if node.leaf:
            node.entries = first
            sibling.entries = second
        else:
            node.children = first
            sibling.children = second
            for child in sibling.children:
                child.parent = sibling
        node._mbr = None

        parent = node.parent
        if parent is None:
            new_root = _Node(leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            self.root = new_root
        else:
            parent.children.append(sibling)
            sibling.parent = parent
            parent.invalidate_up()
            self._handle_overflow(parent, self._level_of(parent), reinserted)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _check_node(self, node: _Node, is_root: bool) -> Rect | None:
        n = len(node)
        if n > self.max_entries:
            raise AssertionError(f"node overfull: {n} > {self.max_entries}")
        if not is_root and n < self.min_entries:
            raise AssertionError(f"node underfull: {n} < {self.min_entries}")
        if node.leaf:
            return node.mbr() if node.entries else None
        depths = set()
        for child in node.children:
            if child.parent is not node:
                raise AssertionError("broken parent pointer")
            child_mbr = self._check_node(child, is_root=False)
            if child_mbr is not None and not node.mbr().contains(child_mbr):
                raise AssertionError("parent MBR does not contain child MBR")
            depths.add(_depth(child))
        if len(depths) > 1:
            raise AssertionError(f"unbalanced: leaf depths {depths}")
        return node.mbr()


def _depth(node: _Node) -> int:
    d = 1
    while not node.leaf:
        node = node.children[0]
        d += 1
    return d


def _pairwise_overlap(lo_a, hi_a, lo_b, hi_b) -> np.ndarray:
    """Overlap volumes between two rect families, ``(len(a), len(b))``.

    Matches :meth:`Rect.overlap_volume` exactly: any negative extent makes
    the pair disjoint (volume 0), never a sign-flipped product.
    """
    ext = np.minimum(hi_a[:, None, :], hi_b[None, :, :]) - np.maximum(
        lo_a[:, None, :], lo_b[None, :, :]
    )
    return np.where((ext < 0).any(axis=-1), 0.0, np.prod(ext, axis=-1))


def _overlap_deltas(
    los: np.ndarray, his: np.ndarray, union_lo: np.ndarray, union_hi: np.ndarray
) -> np.ndarray:
    """Per child: increase in overlap with its siblings if the new rect
    joined it (the R* choose-subtree criterion at the leaf level)."""
    after = _pairwise_overlap(union_lo, union_hi, los, his)
    before = _pairwise_overlap(los, his, los, his)
    delta = after - before
    np.fill_diagonal(delta, 0.0)
    return delta.sum(axis=1)


def _rstar_split(items: list, rect_of, min_entries: int):
    """R* topological split: axis by margin sum, index by (overlap, volume)."""
    ndim = rect_of(items[0]).ndim
    best: _SplitCandidate | None = None
    for axis in range(ndim):
        for key in (
            lambda it: rect_of(it).lo[axis],
            lambda it: rect_of(it).hi[axis],
        ):
            ordered = sorted(items, key=key)
            margin_sum = 0.0
            candidates: list[_SplitCandidate] = []
            for k in range(min_entries, len(ordered) - min_entries + 1):
                first, second = ordered[:k], ordered[k:]
                mbr1 = Rect.union_all([rect_of(i) for i in first])
                mbr2 = Rect.union_all([rect_of(i) for i in second])
                margin = mbr1.margin() + mbr2.margin()
                margin_sum += margin
                candidates.append(
                    _SplitCandidate(
                        margin=margin,
                        overlap=mbr1.overlap_volume(mbr2),
                        volume=mbr1.volume() + mbr2.volume(),
                        first=first,
                        second=second,
                    )
                )
            axis_best = min(candidates, key=lambda c: (c.overlap, c.volume))
            axis_best = _SplitCandidate(
                margin=margin_sum,
                overlap=axis_best.overlap,
                volume=axis_best.volume,
                first=axis_best.first,
                second=axis_best.second,
            )
            if best is None or (axis_best.margin, axis_best.overlap, axis_best.volume) < (
                best.margin,
                best.overlap,
                best.volume,
            ):
                best = axis_best
    assert best is not None
    return list(best.first), list(best.second)


def _even_chunks(items: list, n_parts: int) -> Iterator[list]:
    """Split into ``n_parts`` contiguous chunks whose sizes differ by ≤ 1."""
    n_parts = max(1, min(n_parts, len(items)))
    base, extra = divmod(len(items), n_parts)
    start = 0
    for i in range(n_parts):
        size = base + (1 if i < extra else 0)
        yield items[start : start + size]
        start += size


def _str_partition(items: list, capacity: int) -> Iterator[list]:
    """Partition items into ≤ ``capacity`` chunks via Sort-Tile-Recursive.

    Items are ``(Rect, payload)`` pairs or ``(Rect, node)`` pairs; sorting
    uses rect centers.  Chunk sizes are distributed evenly (all within one
    of ``len / n_chunks``) instead of packing full chunks with a small
    tail: a tail chunk below the R* minimum fill would violate the tree's
    node-underfull invariant the moment it became a node.  Even splits
    keep every chunk ≥ ``capacity / 2``, which dominates ``min_fill``
    (capped at 0.5).
    """
    if len(items) <= capacity:
        yield items
        return
    ndim = items[0][0].ndim

    def tile(chunk: list, axis: int) -> Iterator[list]:
        chunk.sort(key=lambda it: it[0].center[axis])
        n_target = int(np.ceil(len(chunk) / capacity))
        if axis == ndim - 1 or len(chunk) <= capacity:
            yield from _even_chunks(chunk, n_target)
            return
        remaining_dims = ndim - axis
        n_slabs = int(np.ceil(n_target ** (1.0 / remaining_dims)))
        for slab in _even_chunks(chunk, n_slabs):
            yield from tile(slab, axis + 1)

    yield from tile(list(items), 0)
