"""Flow-level simulation of collectives on reconfigurable fabrics.

Two layers:

* the simulator proper (:class:`FlowLevelSimulator`, :func:`simulate`)
  operating on library objects (collectives, topologies, schedules);
* the planner-facing executor (:func:`simulate_plan`,
  :class:`SimResult`) that lowers declarative
  :class:`~repro.planner.Scenario` / :class:`~repro.planner.PlanResult`
  items onto the simulator — plan it, then replay it
  (:func:`repro.engine.sim_many` batches it).
"""

from .executor import SimResult, SimStep, simulate_plan
from .flowsim import FlowLevelSimulator, SimulationResult, StepTiming
from .observation import (
    RateObservation,
    RateObservations,
    observations_from_rows,
    observations_to_rows,
)
from .rates import RATE_METHODS, FlowRate, FlowRates, allocate_rates
from .runner import SimulationReport, simulate
from .trace import EventKind, Trace, TraceEvent
from .workload import PhaseSimResult, WorkloadSimResult, simulate_workload

__all__ = [
    "FlowLevelSimulator",
    "SimulationResult",
    "StepTiming",
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
    "EventKind",
    "Trace",
    "TraceEvent",
]
