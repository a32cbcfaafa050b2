"""Spatial toolkit: geometry and the UST-tree index.

The UST-tree is re-exported lazily (PEP 562): it depends on the
trajectory layer, which in turn uses this package's geometry — eager
imports would be circular.
"""

from .geometry import (
    Rect,
    maxdist_point_rect,
    maxdist_rects,
    mindist_point_rect,
    mindist_rects,
)

__all__ = [
    "PruningResult",
    "Rect",
    "USTTree",
    "maxdist_point_rect",
    "maxdist_rects",
    "mindist_point_rect",
    "mindist_rects",
]

_LAZY = ("USTTree", "PruningResult")


def __getattr__(name: str):
    if name in _LAZY:
        from . import ust_tree

        return getattr(ust_tree, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
