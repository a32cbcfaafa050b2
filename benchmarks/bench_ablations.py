"""Benches for the design-choice ablations called out in DESIGN.md § 7.

Not paper figures — these quantify the two filter-step design decisions:
UST-tree pruning as a whole, and per-tic MBR refinement on top of the
segment-level index entries.  The second one lives here, next to its only
runner: segment-MBR-only bounds exist nowhere but in the per-entry
reference filter of ``tests/oracles/``.
"""

import time

from repro.experiments.figures import (
    _build_workload,
    _resolve,
    _synthetic_queries,
    ablation_pruning,
)
from repro.experiments.report import format_figure
from repro.experiments.results import FigureResult, Panel
from tests.oracles import prune_reference, segment_tree

SCALE = "tiny"


def ablation_refinement(scale="small", seed: int = 0) -> FigureResult:
    """Effect of per-tic MBR refinement on filter-set sizes (both modes on
    the reference loop — the only one that has both — so the time panel
    compares two bounds, not two implementations)."""
    sc = _resolve(scale)
    wl = _build_workload(sc, seed)
    db = wl.db
    tree = segment_tree(db)
    queries = _synthetic_queries(wl, sc)

    modes = {"segment MBRs": False, "per-tic MBRs": True}
    cand_series, infl_series, time_series = [], [], []
    for label, refine in modes.items():
        cand = infl = elapsed = 0.0
        for q, times in queries:
            start = time.perf_counter()
            res = prune_reference(
                db, q.coords_at(times), times, refine_per_tic=refine, tree=tree
            )
            elapsed += time.perf_counter() - start
            cand += len(res.candidates)
            infl += len(res.influencers)
        n = len(queries)
        cand_series.append(cand / n)
        infl_series.append(infl / n)
        time_series.append(elapsed / n)

    result = FigureResult(
        figure="ablation_refinement",
        title="Ablation: per-tic MBR refinement",
        scale=sc.name,
    )
    panel = Panel(title="filter quality", x_label="mode", x_values=list(modes))
    panel.add("|C(q)|", cand_series)
    panel.add("|I(q)|", infl_series)
    panel.add("prune time (s)", time_series)
    result.panels = [panel]
    return result


def test_ablation_pruning(benchmark):
    result = benchmark.pedantic(
        ablation_pruning, args=(SCALE,), kwargs={"seed": 0}, iterations=1, rounds=1
    )
    print()
    print(format_figure(result))
    panel = result.panels[0]
    refined = panel.series["objects refined"]
    # Pruning must strictly reduce the refinement workload.
    assert refined[0] <= refined[1]


def test_ablation_refinement(benchmark):
    result = benchmark.pedantic(
        ablation_refinement, args=(SCALE,), kwargs={"seed": 0}, iterations=1, rounds=1
    )
    print()
    print(format_figure(result))
    panel = result.panels[0]
    # Tighter bounds can only shrink candidate and influence sets.
    assert panel.series["|C(q)|"][1] <= panel.series["|C(q)|"][0]
    assert panel.series["|I(q)|"][1] <= panel.series["|I(q)|"][0]
