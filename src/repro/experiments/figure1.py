"""Figure 1 reproduction: eight speedup heatmaps (paper §3.4).

Top row (panels a-d): speedup of the optimized schedule over naive
per-step reconfiguration (BvN schedules).  Bottom row (panels e-h):
speedup over the static ring.  Panels vary the algorithm (recursive
halving/doubling, Swing, All-to-All) and the per-step latency ``alpha``
(100 ns or 10 us).

Each panel is one batched :func:`repro.engine.plan_many` call: the
(message size x alpha_r) grid expands into declarative
:class:`~repro.planner.Scenario` cells, every cell is planned with the
``dp``, ``static``, and ``bvn`` solvers, and the results are folded
back into the :class:`~repro.analysis.speedup.SpeedupGrid` the
renderers consume.  All cells share one two-tier theta cache, so a
panel still costs only a handful of LP solves — zero, when
``REPRO_CACHE_DIR`` points at a warm on-disk store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.regimes import RegimeCensus, census
from ..analysis.speedup import SpeedupGrid
from ..engine import plan_many
from ..exceptions import ConfigurationError
from ..flows import ThroughputCache, default_cache
from ..planner import PlanRequest, Scenario, scenario_grid
from .config import FIGURE1_PANELS, PanelSpec, PaperConfig, PAPER_CONFIG

__all__ = [
    "PanelResult",
    "panel_scenario",
    "run_panel",
    "run_figure1",
    "panel_by_id",
]

#: The three policies evaluated per grid cell.
_PANEL_SOLVERS = ("dp", "static", "bvn")


@dataclass(frozen=True)
class PanelResult:
    """One evaluated heatmap panel."""

    spec: PanelSpec
    grid: SpeedupGrid
    census: RegimeCensus

    def speedups(self):
        """The panel's speedup matrix (rows = message sizes)."""
        return self.grid.speedup(self.spec.comparator)


def panel_by_id(panel: str) -> PanelSpec:
    """Look up a Figure 1 panel spec by its letter."""
    for spec in FIGURE1_PANELS:
        if spec.panel == panel:
            return spec
    raise ConfigurationError(
        f"unknown Figure 1 panel {panel!r}; choose from "
        f"{[s.panel for s in FIGURE1_PANELS]}"
    )


def panel_scenario(
    spec: PanelSpec, config: PaperConfig = PAPER_CONFIG
) -> Scenario:
    """The declarative base scenario of one panel (first grid cell)."""
    return Scenario.create(
        spec.algorithm,
        n=config.n,
        message_size=config.message_sizes[0],
        bandwidth=config.bandwidth,
        alpha=spec.alpha,
        delta=config.delta,
        reconfiguration_delay=config.alpha_rs[0],
        topology="ring",
        topology_options={"bidirectional": config.bidirectional_ring},
        name=f"figure-panel-{spec.panel}",
    )


def run_panel(
    spec: PanelSpec,
    config: PaperConfig = PAPER_CONFIG,
    cache: ThroughputCache | None = default_cache,
) -> PanelResult:
    """Evaluate one panel's full (alpha_r x message size) grid."""
    cells = scenario_grid(
        panel_scenario(spec, config), config.message_sizes, config.alpha_rs
    )
    requests = [
        PlanRequest(scenario=cell, solver=solver)
        for cell in cells
        for solver in _PANEL_SOLVERS
    ]
    results = plan_many(requests, cache=cache)

    shape = (len(config.message_sizes), len(config.alpha_rs))
    surfaces = {
        solver: np.zeros(shape) for solver in _PANEL_SOLVERS
    }
    matched = np.zeros(shape, dtype=int)
    per_cell = len(_PANEL_SOLVERS)
    for index, cell in enumerate(cells):
        row, col = divmod(index, len(config.alpha_rs))
        for offset, solver in enumerate(_PANEL_SOLVERS):
            result = results[index * per_cell + offset]
            surfaces[solver][row, col] = result.total_time
            if solver == "dp":
                matched[row, col] = result.num_matched_steps
    grid = SpeedupGrid(
        algorithm=spec.algorithm,
        message_sizes=tuple(float(m) for m in config.message_sizes),
        alpha_rs=tuple(float(a) for a in config.alpha_rs),
        opt=surfaces["dp"],
        static=surfaces["static"],
        bvn=surfaces["bvn"],
        matched_steps=matched,
    )
    return PanelResult(spec=spec, grid=grid, census=census(grid))


def run_figure1(
    config: PaperConfig = PAPER_CONFIG,
    panels: str | None = None,
    cache: ThroughputCache | None = default_cache,
) -> list[PanelResult]:
    """Evaluate all (or selected) Figure 1 panels.

    ``panels`` is a string of panel letters, e.g. ``"aeh"``; ``None``
    runs all eight.
    """
    selected = (
        FIGURE1_PANELS
        if panels is None
        else tuple(panel_by_id(p) for p in panels)
    )
    return [run_panel(spec, config=config, cache=cache) for spec in selected]
