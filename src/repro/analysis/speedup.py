"""Speedup grids over (reconfiguration delay, message size) — the data
behind every heatmap of the paper's Figure 1 and Figure 2.

:func:`repro.experiments.run_panel` fills a :class:`SpeedupGrid` from
one :func:`repro.engine.plan_many` call over a panel's
:func:`~repro.planner.scenario_grid` (the ``dp``, ``static`` and
``bvn`` plan of every cell); this module holds the grid and the
speedup and regime views the renderers and the census read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["SpeedupGrid", "COMPARATORS"]

COMPARATORS = ("bvn", "static", "best")


@dataclass(frozen=True)
class SpeedupGrid:
    """Completion times and speedups over a 2-D parameter grid.

    Rows index ``message_sizes`` (bits), columns index ``alpha_rs``
    (seconds).  All time arrays are seconds.
    """

    algorithm: str
    message_sizes: tuple[float, ...]
    alpha_rs: tuple[float, ...]
    opt: np.ndarray
    static: np.ndarray
    bvn: np.ndarray
    matched_steps: np.ndarray

    def speedup(self, comparator: str) -> np.ndarray:
        """Speedup of the optimized schedule vs a comparator strategy."""
        if comparator == "bvn":
            reference = self.bvn
        elif comparator == "static":
            reference = self.static
        elif comparator == "best":
            reference = np.minimum(self.static, self.bvn)
        else:
            raise ConfigurationError(
                f"unknown comparator {comparator!r}; choose from {COMPARATORS}"
            )
        return reference / self.opt

    def regimes(self, tolerance: float = 1e-9) -> np.ndarray:
        """Per-cell regime code: ``'static'``, ``'bvn'`` or ``'mixed'``."""
        best = np.minimum(self.static, self.bvn)
        out = np.where(self.static <= self.bvn, "static", "bvn").astype(object)
        out[self.opt < best * (1 - tolerance)] = "mixed"
        return out
