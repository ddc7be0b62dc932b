"""Flow-level simulation of collectives on reconfigurable fabrics.

Two layers:

* the simulator proper (:class:`FlowLevelSimulator`, :func:`simulate`)
  operating on library objects (collectives, topologies, schedules),
  recording one :class:`SimStep` row per executed step;
* the planner-facing executor (:func:`simulate_plan`,
  :class:`SimResult`) that lowers declarative
  :class:`~repro.planner.Scenario` / :class:`~repro.planner.PlanResult`
  items onto the simulator — plan it, then replay it.
"""

from .executor import SimResult, simulate_plan
from .flowsim import FlowLevelSimulator, SimStep, SimulationResult
from .observation import (
    RateObservation,
    RateObservations,
    observations_from_rows,
    observations_to_rows,
)
from .rates import RATE_METHODS, FlowRate, FlowRates, allocate_rates
from .runner import SimulationReport, simulate
from .workload import PhaseSimResult, WorkloadSimResult, simulate_workload

__all__ = [
    "FlowLevelSimulator",
    "SimulationResult",
    "FlowRate",
    "FlowRates",
    "allocate_rates",
    "RATE_METHODS",
    "RateObservation",
    "RateObservations",
    "observations_to_rows",
    "observations_from_rows",
    "SimulationReport",
    "simulate",
    "SimResult",
    "SimStep",
    "simulate_plan",
    "PhaseSimResult",
    "WorkloadSimResult",
    "simulate_workload",
]
