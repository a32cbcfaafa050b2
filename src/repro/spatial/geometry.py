"""Spatial primitives: axis-aligned boxes and min/max distance computations.

These primitives back the reference R*-tree (``tests/oracles/``)
and the UST-tree pruning rules of Section 6 of the paper, which compare
``dmin(o(t), q(t))`` against ``dmax(o'(t), q(t))`` over minimum bounding
rectangles of reachable states.

All coordinates are ``float`` numpy arrays; boxes are closed intervals
``[lo, hi]`` per dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Rect",
    "mindist_point_rect",
    "maxdist_point_rect",
    "mindist_rects",
    "maxdist_rects",
]


@dataclass(frozen=True)
class Rect:
    """A closed axis-aligned box in d dimensions.

    Parameters
    ----------
    lo, hi:
        Per-dimension lower and upper bounds.  ``lo[i] <= hi[i]`` must hold
        for every dimension ``i``.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"lo and hi must have the same dimension, got {len(self.lo)} and {len(self.hi)}"
            )
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"degenerate rect: lo={self.lo} > hi={self.hi}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_points(points: np.ndarray) -> "Rect":
        """Minimum bounding rect of an (n, d) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.size == 0:
            raise ValueError("cannot bound an empty point set")
        return Rect(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)))

    @staticmethod
    def point(coords: Sequence[float]) -> "Rect":
        """A degenerate rect covering a single point."""
        c = tuple(float(x) for x in coords)
        return Rect(c, c)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0

    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def margin(self) -> float:
        """Sum of edge lengths (the R* split criterion calls this margin)."""
        return float(np.sum(np.asarray(self.hi) - np.asarray(self.lo)))

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lo, other.lo)),
            tuple(max(a, b) for a, b in zip(self.hi, other.hi)),
        )

    @staticmethod
    def union_all(rects: Iterable["Rect"]) -> "Rect":
        rects = list(rects)
        if not rects:
            raise ValueError("cannot union an empty collection of rects")
        lo = np.min([r.lo for r in rects], axis=0)
        hi = np.max([r.hi for r in rects], axis=0)
        return Rect(tuple(lo), tuple(hi))

    def intersects(self, other: "Rect") -> bool:
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains(self, other: "Rect") -> bool:
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def contains_point(self, point: Sequence[float]) -> bool:
        return all(l <= p <= h for l, p, h in zip(self.lo, point, self.hi))

    def overlap_volume(self, other: "Rect") -> float:
        """Volume of the intersection (0.0 when disjoint)."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        ext = hi - lo
        if np.any(ext < 0):
            return 0.0
        return float(np.prod(ext))

    def enlargement(self, other: "Rect") -> float:
        """Volume increase needed for this rect to cover ``other``."""
        return self.union(other).volume() - self.volume()

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def mindist_point(self, point: Sequence[float]) -> float:
        """Minimum Euclidean distance from ``point`` to this rect."""
        return float(mindist_point_rect(np.asarray(point, dtype=float), self))

    def maxdist_point(self, point: Sequence[float]) -> float:
        """Maximum Euclidean distance from ``point`` to this rect."""
        return float(maxdist_point_rect(np.asarray(point, dtype=float), self))

    def mindist_rect(self, other: "Rect") -> float:
        return mindist_rects(self, other)

    def maxdist_rect(self, other: "Rect") -> float:
        return maxdist_rects(self, other)


def mindist_point_rect(points: np.ndarray, rect: Rect) -> np.ndarray:
    """Minimum distance from one or many points to ``rect``.

    ``points`` may be a single point ``(d,)`` or a batch ``(n, d)``; the
    result has matching shape ``()`` or ``(n,)``.
    """
    pts = np.asarray(points, dtype=float)
    lo = np.asarray(rect.lo)
    hi = np.asarray(rect.hi)
    delta = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.sqrt(np.sum(delta * delta, axis=-1))


def maxdist_point_rect(points: np.ndarray, rect: Rect) -> np.ndarray:
    """Maximum distance from one or many points to ``rect``.

    The farthest point of a box from ``p`` is, per dimension, whichever of
    ``lo``/``hi`` lies farther from ``p``.
    """
    pts = np.asarray(points, dtype=float)
    lo = np.asarray(rect.lo)
    hi = np.asarray(rect.hi)
    delta = np.maximum(np.abs(pts - lo), np.abs(hi - pts))
    return np.sqrt(np.sum(delta * delta, axis=-1))


def mindist_rects(a: Rect, b: Rect) -> float:
    """Minimum distance between any pair of points of two boxes."""
    lo_a, hi_a = np.asarray(a.lo), np.asarray(a.hi)
    lo_b, hi_b = np.asarray(b.lo), np.asarray(b.hi)
    delta = np.maximum(np.maximum(lo_a - hi_b, lo_b - hi_a), 0.0)
    return float(np.sqrt(np.sum(delta * delta)))


def maxdist_rects(a: Rect, b: Rect) -> float:
    """Maximum distance between any pair of points of two boxes."""
    lo_a, hi_a = np.asarray(a.lo), np.asarray(a.hi)
    lo_b, hi_b = np.asarray(b.lo), np.asarray(b.hi)
    delta = np.maximum(np.abs(hi_a - lo_b), np.abs(hi_b - lo_a))
    return float(np.sqrt(np.sum(delta * delta)))
