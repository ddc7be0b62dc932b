"""Analysis layer: speedup grids, heatmaps, regime census,
adaptivity comparisons, online-control regret."""

from .adaptivity import PhaseRecord, PolicyComparison, compare_policies
from .heatmap import render_grid, render_shaded
from .regimes import RegimeCensus, census
from .regret import PhaseRegret, RegretReport, measure_regret
from .speedup import COMPARATORS, SpeedupGrid

__all__ = [
    "SpeedupGrid",
    "COMPARATORS",
    "render_grid",
    "render_shaded",
    "RegimeCensus",
    "census",
    "PhaseRecord",
    "PolicyComparison",
    "compare_policies",
    "PhaseRegret",
    "RegretReport",
    "measure_regret",
]
