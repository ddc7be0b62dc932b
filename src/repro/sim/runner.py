"""High-level simulation entry points.

:func:`simulate` wires the whole pipeline together: evaluate step costs
on the base topology, pick (or optimize) a schedule, run the flow-level
simulator, and cross-check the simulated completion time against the
analytic Eq. 7 objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..collectives.base import Collective
from ..core.baselines import bvn_cost, static_cost
from ..core.cost_model import CostParameters, evaluate_step_costs
from ..core.optimizer_dp import optimize_schedule
from ..core.schedule import Schedule, ScheduleCost, evaluate_schedule
from ..exceptions import SimulationError
from ..flows import ThroughputCache, default_cache
from ..topology.base import Topology
from .flowsim import FlowLevelSimulator, SimulationResult

__all__ = ["SimulationReport", "simulate"]


@dataclass(frozen=True)
class SimulationReport:
    """A simulation outcome paired with its analytic prediction."""

    collective: str
    schedule: Schedule
    simulation: SimulationResult
    analytic: ScheduleCost
    static: ScheduleCost
    bvn: ScheduleCost

    @property
    def model_error(self) -> float:
        """Relative gap between simulated and analytic completion time."""
        if self.analytic.total == 0:
            return 0.0
        return abs(self.simulation.total_time - self.analytic.total) / self.analytic.total

    @property
    def speedup_vs_static(self) -> float:
        """Simulated speedup over the static baseline (analytic)."""
        return self.static.total / self.simulation.total_time

    @property
    def speedup_vs_bvn(self) -> float:
        """Simulated speedup over always-reconfigure (analytic)."""
        return self.bvn.total / self.simulation.total_time


def simulate(
    collective: Collective,
    topology: Topology,
    params: CostParameters,
    schedule: Schedule | None = None,
    rate_method: str = "mcf",
    accounting: str = "paper",
    theta_method: str = "auto",
    cache: ThroughputCache | None = default_cache,
    check_model: bool = True,
) -> SimulationReport:
    """Simulate a collective end to end.

    When ``schedule`` is omitted, the DP-optimal schedule is used.  With
    the default idealized settings (``mcf`` rates, ``paper``
    accounting), a disagreement between the simulator and the analytic
    model beyond float tolerance raises :class:`SimulationError` —
    that invariant is the simulator's correctness anchor.
    """
    step_costs = evaluate_step_costs(
        collective, topology, params, theta_method=theta_method, cache=cache
    )
    if schedule is None:
        schedule = optimize_schedule(step_costs, params).schedule
    analytic = evaluate_schedule(step_costs, schedule, params)
    simulator = FlowLevelSimulator(
        topology,
        params,
        rate_method=rate_method,
        accounting=accounting,
        cache=cache,
    )
    simulation = simulator.run(collective, schedule)
    if (
        check_model
        and rate_method == "mcf"
        and accounting == "paper"
        and theta_method == "auto"
        and not math.isinf(analytic.total)
    ):
        gap = abs(simulation.total_time - analytic.total)
        if gap > 1e-9 * max(analytic.total, 1e-12):
            raise SimulationError(
                f"simulator ({simulation.total_time}) diverged from the "
                f"analytic model ({analytic.total}) by {gap}"
            )
    return SimulationReport(
        collective=collective.name,
        schedule=schedule,
        simulation=simulation,
        analytic=analytic,
        static=static_cost(step_costs, params),
        bvn=bvn_cost(step_costs, params),
    )
