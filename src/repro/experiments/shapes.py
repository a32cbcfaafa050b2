"""Executable shape checks: does a figure result match the paper?

EXPERIMENTS.md compares shapes by hand; this module encodes every
figure's expected qualitative behaviour — orderings, monotone trends,
flat lines — as predicates over :class:`FigureResult`, so a reproduction
run can verify itself (``runner --verify``).

Checks are deliberately *qualitative*: they assert the paper's claims
(e.g. "FB beats U", "#timestamp sets falls with |D|"), never absolute
numbers.  Some secondary trends are noise-prone at reduced scales; those
carry ``strict=False`` and only produce warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .results import FigureResult

__all__ = ["ShapeCheck", "CheckOutcome", "verify_figure", "SHAPE_CHECKS"]


@dataclass(frozen=True)
class ShapeCheck:
    """One expected property of a figure."""

    description: str
    predicate: Callable[[FigureResult], bool]
    strict: bool = True


@dataclass(frozen=True)
class CheckOutcome:
    description: str
    passed: bool
    strict: bool

    @property
    def verdict(self) -> str:
        if self.passed:
            return "PASS"
        return "FAIL" if self.strict else "WARN"


def _series(result: FigureResult, panel_idx: int, label: str) -> np.ndarray:
    return np.asarray(result.panels[panel_idx].series[label], dtype=float)


def _weakly_increasing(values: np.ndarray, slack: float = 0.0) -> bool:
    return bool(values[-1] >= values[0] * (1.0 - slack))


def _weakly_decreasing(values: np.ndarray, slack: float = 0.0) -> bool:
    return bool(values[-1] <= values[0] * (1.0 + slack))


def _pnn_sweep_checks(grow_with_x: bool) -> list[ShapeCheck]:
    """Shared checks for the Figs. 6-9 layout."""
    if grow_with_x:
        return [
            ShapeCheck(
                "TS grows with the sweep variable",
                lambda r: _weakly_increasing(_series(r, 0, "TS")),
            ),
            ShapeCheck(
                "influence sets grow with the sweep variable",
                lambda r: _weakly_increasing(_series(r, 1, "|I(q)|")),
            ),
            ShapeCheck(
                "query cost (FA) grows",
                lambda r: _weakly_increasing(_series(r, 0, "FA")),
                strict=False,
            ),
        ]
    return [
        ShapeCheck(
            "influence sets shrink as pruning gets more effective",
            lambda r: _weakly_decreasing(_series(r, 1, "|I(q)|")),
        ),
        ShapeCheck(
            "query cost (EX) does not grow",
            lambda r: _weakly_decreasing(_series(r, 0, "EX"), slack=0.3),
            strict=False,
        ),
    ]


SHAPE_CHECKS: dict[str, list[ShapeCheck]] = {
    "fig06": _pnn_sweep_checks(grow_with_x=False),
    "fig07": _pnn_sweep_checks(grow_with_x=True),
    "fig08": _pnn_sweep_checks(grow_with_x=True),
    "fig09": _pnn_sweep_checks(grow_with_x=True)
    + [
        ShapeCheck(
            "denser real data: |I(q)| larger than a handful",
            lambda r: _series(r, 1, "|I(q)|").mean() >= 3.0,
            strict=False,
        )
    ],
    "fig10": [
        ShapeCheck(
            "FB needs exactly one draw per valid trajectory",
            lambda r: bool(np.all(_series(r, 0, "FB (Algorithm 2)") == 1.0)),
        ),
        ShapeCheck(
            "TS1 grows with the observation count",
            lambda r: _weakly_increasing(_series(r, 0, "TS1 (full rejection)")),
        ),
        ShapeCheck(
            "TS2 grows with the observation count",
            lambda r: _weakly_increasing(_series(r, 0, "TS2 (segment-wise)")),
        ),
        ShapeCheck(
            "TS1 at least as expensive as TS2 at the largest m",
            lambda r: _series(r, 0, "TS1 (full rejection)")[-1]
            >= _series(r, 0, "TS2 (segment-wise)")[-1],
        ),
    ],
    "fig11": [
        ShapeCheck(
            "SS overestimates P∃NN (positive bias)",
            lambda r: r.panel("P∃NN").series["SS"][0] > 0.0,
        ),
        ShapeCheck(
            "SS does not overestimate P∀NN",
            lambda r: r.panel("P∀NN").series["SS"][0] <= 0.005,
        ),
        ShapeCheck(
            "SA better calibrated than SS on P∃NN (rmse)",
            lambda r: r.panel("P∃NN").series["SA"][2]
            <= r.panel("P∃NN").series["SS"][2],
        ),
        ShapeCheck(
            "SA better calibrated than SS on P∀NN (rmse)",
            lambda r: r.panel("P∀NN").series["SA"][2]
            <= r.panel("P∀NN").series["SS"][2],
            strict=False,
        ),
    ],
    "fig12": [
        ShapeCheck(
            "FB has the lowest mean error of all variants",
            lambda r: min(
                float(np.nanmean(np.asarray(vals)))
                for label, vals in r.panels[0].series.items()
            )
            == float(np.nanmean(np.asarray(r.panels[0].series["FB"]))),
        ),
        ShapeCheck(
            "NO (no adaptation) is the worst variant",
            lambda r: max(
                float(np.nanmean(np.asarray(vals)))
                for label, vals in r.panels[0].series.items()
            )
            == float(np.nanmean(np.asarray(r.panels[0].series["NO"]))),
        ),
        ShapeCheck(
            "U (uniform diamond) worse than FB",
            lambda r: float(np.nanmean(np.asarray(r.panels[0].series["U"])))
            >= float(np.nanmean(np.asarray(r.panels[0].series["FB"]))),
        ),
        ShapeCheck(
            "FBU between FB and U",
            lambda r: float(np.nanmean(np.asarray(r.panels[0].series["FB"])))
            <= float(np.nanmean(np.asarray(r.panels[0].series["FBU"]))) + 1e-9
            <= float(np.nanmean(np.asarray(r.panels[0].series["U"]))) + 0.05,
            strict=False,
        ),
        ShapeCheck(
            "error vanishes at the first observation",
            lambda r: all(vals[0] == 0.0 for vals in r.panels[0].series.values()),
        ),
    ],
    "fig13": [
        ShapeCheck(
            "TS grows with |D|",
            lambda r: _weakly_increasing(_series(r, 0, "TS")),
        ),
        ShapeCheck(
            "qualifying timestamp sets shrink with |D|",
            lambda r: _weakly_decreasing(_series(r, 1, "#qualifying")),
        ),
    ],
    "fig14": [
        ShapeCheck(
            "TS independent of tau",
            lambda r: len(set(r.panels[0].series["TS"])) == 1,
        ),
        ShapeCheck(
            "qualifying timestamp sets shrink with tau",
            lambda r: _weakly_decreasing(_series(r, 1, "#qualifying")),
        ),
        ShapeCheck(
            "evaluated candidates shrink with tau",
            lambda r: _weakly_decreasing(_series(r, 1, "#evaluated")),
        ),
    ],
    "ablation_pruning": [
        ShapeCheck(
            "pruning reduces refined objects",
            lambda r: r.panels[0].series["objects refined"][0]
            <= r.panels[0].series["objects refined"][1],
        ),
    ],
}


def verify_figure(result: FigureResult) -> list[CheckOutcome]:
    """Run all registered shape checks for a figure result."""
    outcomes = []
    for check in SHAPE_CHECKS.get(result.figure, []):
        try:
            passed = bool(check.predicate(result))
        except (KeyError, IndexError):
            passed = False
        outcomes.append(
            CheckOutcome(
                description=check.description, passed=passed, strict=check.strict
            )
        )
    return outcomes
