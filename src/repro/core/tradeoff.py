"""Regime boundaries: "so what is the Delta after all?" (paper §3.4).

The paper's three regimes are

* ``"static"``   — never reconfiguring is optimal,
* ``"bvn"``      — reconfiguring every step is optimal,
* ``"mixed"``    — the optimum strictly beats both pure strategies
  (the diagonal band of Figure 2).

:meth:`repro.analysis.SpeedupGrid.regimes` labels each cell of a
planned grid; this module locates the reconfiguration delays that
separate the regimes for one collective's step costs.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .baselines import bvn_cost, static_cost
from .cost_model import CostParameters, StepCost
from .optimizer_dp import optimize_schedule

__all__ = ["static_bvn_breakeven", "crossover_to_static"]


def static_bvn_breakeven(
    step_costs: Sequence[StepCost], params: CostParameters
) -> float:
    """The ``alpha_r`` at which the two pure strategies cost the same.

    Static cost is independent of ``alpha_r``; the BvN cost grows
    linearly with slope ``s`` (one reconfiguration per step).  Returns
    ``inf`` when static is never reached (base topology infeasible) and
    0.0 when static already wins at ``alpha_r = 0``.
    """
    zero = params.with_reconfiguration_delay(0.0)
    static = static_cost(step_costs, zero).total
    bvn_at_zero = bvn_cost(step_costs, zero).total
    if math.isinf(static):
        return math.inf
    gap = static - bvn_at_zero
    if gap <= 0:
        return 0.0
    return gap / len(step_costs)


def crossover_to_static(
    step_costs: Sequence[StepCost],
    params: CostParameters,
    low: float = 1e-9,
    high: float = 10.0,
    iterations: int = 60,
) -> float:
    """Smallest ``alpha_r`` (within bisection tolerance) at which the
    optimal schedule stops reconfiguring entirely.

    The number of matched steps in the optimum is non-increasing in
    ``alpha_r``, so bisection applies.  Returns ``inf`` if the optimum
    still reconfigures at ``high`` and 0.0 if it never does.
    """

    def opt_is_static(alpha_r: float) -> bool:
        result = optimize_schedule(
            step_costs, params.with_reconfiguration_delay(alpha_r)
        )
        return result.schedule.is_static()

    if opt_is_static(low):
        return 0.0
    if not opt_is_static(high):
        return math.inf
    for _ in range(iterations):
        mid = math.sqrt(low * high)  # geometric bisection: delays span decades
        if opt_is_static(mid):
            high = mid
        else:
            low = mid
    return high
