"""Figure 2 reproduction: OPT vs the best of both worlds (paper §3.4).

The paper's Figure 2 shows that an optimized schedule beats even the
per-point minimum of the two pure strategies, with the gains
concentrated in a diagonal transitional band of the
(reconfiguration delay, message size) plane — the regime where neither
always-reconfigure nor always-static suffices.

Like Figure 1, the grid is evaluated through the unified evaluation
engine (:func:`repro.engine.plan_many` under :func:`run_panel`).
"""

from __future__ import annotations

from ..flows import ThroughputCache, default_cache
from .config import FIGURE2_PANEL, PaperConfig, PAPER_CONFIG
from .figure1 import PanelResult, run_panel

__all__ = ["run_figure2"]


def run_figure2(
    config: PaperConfig = PAPER_CONFIG,
    cache: ThroughputCache | None = default_cache,
) -> PanelResult:
    """Evaluate the Figure 2 grid (speedup vs min(static, BvN))."""
    return run_panel(FIGURE2_PANEL, config=config, cache=cache)
