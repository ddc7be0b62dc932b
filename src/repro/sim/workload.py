"""Sim-in-the-loop execution of planned *workloads*.

:func:`simulate_workload` is the multi-phase twin of
:func:`~repro.sim.simulate_plan`: it chains one flow-simulator
execution per phase on the shared fabric, threading the circuit
configuration each phase ends in into the next phase's opening
reconfiguration (physical accounting, priced by the workload plan's
delay model), and moves each phase's step rows onto one workload clock.

Under ``mcf`` rates the measured per-phase times provably equal the
plan's physically accounted per-phase totals, and the executor asserts
that anchor — the workload-level analogue of ``simulate_plan``'s
model check.

A workload sweep is a plain loop of :func:`simulate_workload` over one
shared theta cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Mapping

from .._validation import require_field as _require
from ..exceptions import SimulationError
from ..fabric.reconfiguration import ReconfigurationModel
from ..flows import ThroughputCache, default_cache
from ..workload.policies import plan_workload
from ..workload.result import WorkloadPlan
from ..workload.spec import Workload
from .executor import _MODEL_RTOL, _utilization
from .flowsim import FlowLevelSimulator, SimStep
from .observation import (
    RateObservations,
    observations_from_rows,
    observations_to_rows,
)
from .rates import RATE_METHODS

__all__ = ["PhaseSimResult", "WorkloadSimResult", "simulate_workload"]


@dataclass(frozen=True)
class PhaseSimResult:
    """Measured timing of one executed workload phase.

    ``start`` / ``end`` and each step row's ``start`` / ``end`` are on
    the workload clock (phase offsets included); ``sim_time`` is the
    phase's own duration.
    ``analytic_time`` is the plan's physically accounted prediction for
    this phase — opening reconfiguration included — and ``eq7_time``
    the memoryless Eq. 7 prediction, kept so reports can show what a
    planner that forgets the fabric between phases expected.

    ``rate_observations`` (collected under ``observe_rates=True``) is
    the phase's per-flow telemetry on the phase-local clock — exactly
    what the phase's own :class:`~repro.sim.FlowLevelSimulator` run
    recorded.  It is serialized by :meth:`to_dict`, so observations
    survive a JSON round trip.
    """

    index: int
    name: str
    start: float
    end: float
    sim_time: float
    analytic_time: float
    eq7_time: float
    reconfiguration_time: float
    n_reconfigurations: int
    steps: tuple[SimStep, ...]
    link_utilization: tuple[tuple[tuple[object, object], float], ...] = ()
    rate_observations: RateObservations | tuple[()] = ()

    @property
    def model_error(self) -> float:
        """Relative gap between measured and predicted phase time."""
        if self.analytic_time == 0:
            return 0.0
        return abs(self.sim_time - self.analytic_time) / self.analytic_time

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "index": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "sim_time": self.sim_time,
            "analytic_time": self.analytic_time,
            "eq7_time": self.eq7_time,
            "reconfiguration_time": self.reconfiguration_time,
            "n_reconfigurations": self.n_reconfigurations,
            "steps": [step.to_dict() for step in self.steps],
            "link_utilization": [
                [[u, v], value] for (u, v), value in self.link_utilization
            ],
        }
        if self.rate_observations:
            out["rate_observations"] = observations_to_rows(
                self.rate_observations
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PhaseSimResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(_require(data, "index", "phase sim")),
            name=str(data.get("name", "")),
            start=float(_require(data, "start", "phase sim")),
            end=float(_require(data, "end", "phase sim")),
            sim_time=float(_require(data, "sim_time", "phase sim")),
            analytic_time=float(_require(data, "analytic_time", "phase sim")),
            eq7_time=float(_require(data, "eq7_time", "phase sim")),
            reconfiguration_time=float(
                _require(data, "reconfiguration_time", "phase sim")
            ),
            n_reconfigurations=int(
                _require(data, "n_reconfigurations", "phase sim")
            ),
            steps=tuple(SimStep.from_dict(s) for s in data.get("steps", ())),
            link_utilization=tuple(
                ((edge[0], edge[1]), float(value))
                for edge, value in data.get("link_utilization", ())
            ),
            rate_observations=observations_from_rows(
                data.get("rate_observations", ())
            ),
        )


@dataclass(frozen=True)
class WorkloadSimResult:
    """The measured outcome of executing one planned workload."""

    plan: WorkloadPlan
    rate_method: str
    sim_time: float
    analytic_time: float
    reconfiguration_time: float
    n_reconfigurations: int
    phases: tuple[PhaseSimResult, ...]

    @property
    def workload(self) -> Workload:
        """The workload that was planned and executed."""
        return self.plan.workload

    @property
    def policy(self) -> str:
        """Name of the policy that produced the executed plan."""
        return self.plan.policy

    @property
    def model_error(self) -> float:
        """Relative gap between measured and predicted workload time."""
        if self.analytic_time == 0:
            return 0.0
        return abs(self.sim_time - self.analytic_time) / self.analytic_time

    @property
    def per_phase_times(self) -> tuple[float, ...]:
        """Measured duration of each phase."""
        return tuple(phase.sim_time for phase in self.phases)

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "plan": self.plan.to_dict(),
            "rate_method": self.rate_method,
            "sim_time": self.sim_time,
            "analytic_time": self.analytic_time,
            "reconfiguration_time": self.reconfiguration_time,
            "n_reconfigurations": self.n_reconfigurations,
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadSimResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            plan=WorkloadPlan.from_dict(_require(data, "plan", "workload sim")),
            rate_method=str(_require(data, "rate_method", "workload sim")),
            sim_time=float(_require(data, "sim_time", "workload sim")),
            analytic_time=float(
                _require(data, "analytic_time", "workload sim")
            ),
            reconfiguration_time=float(
                _require(data, "reconfiguration_time", "workload sim")
            ),
            n_reconfigurations=int(
                _require(data, "n_reconfigurations", "workload sim")
            ),
            phases=tuple(
                PhaseSimResult.from_dict(p) for p in data.get("phases", ())
            ),
        )


def _should_check_phase(scenario, rate_method: str) -> bool:
    """Whether a phase's measured time must equal the physical analytic
    total (the same idealized-settings rule as ``simulate_plan``)."""
    return rate_method == "mcf" and scenario.theta_method == "auto"


def simulate_workload(
    item: Workload | WorkloadPlan,
    policy: str = "replan",
    solver: str = "dp",
    rate_method: str = "mcf",
    reconfiguration_model: ReconfigurationModel | None = None,
    collect_utilization: bool = False,
    check_model: bool = True,
    cache: "ThroughputCache | None" = default_cache,
    observe_rates: bool = False,
    **options,
) -> WorkloadSimResult:
    """Execute a planned workload on the flow-level simulator.

    Parameters
    ----------
    item:
        A finished :class:`~repro.workload.WorkloadPlan` to execute, or
        a bare :class:`~repro.workload.Workload` to plan first (with
        ``policy`` / ``solver`` / ``reconfiguration_model`` /
        ``options``) and then execute.
    policy, solver, reconfiguration_model, options:
        Forwarded to :func:`~repro.workload.plan_workload` for bare
        workloads; must stay at their defaults when a prepared plan is
        given (a plan already carries its policy and delay model).
    rate_method:
        Per-step flow rate policy on the base topology.
    collect_utilization:
        Also derive per-phase base-link utilization (extra LP solves
        under ``"mcf"``); off by default.
    check_model:
        Under ``mcf`` rates, raise
        :class:`~repro.exceptions.SimulationError` if any phase's
        measured time diverges from its physically accounted analytic
        total beyond float tolerance.
    cache:
        Shared theta memo.
    observe_rates:
        Record each phase's per-flow achieved-rate telemetry
        (:class:`~repro.sim.RateObservation` rows on the phase-local
        clock) in its :class:`PhaseSimResult`.  Off by default.

    Returns
    -------
    WorkloadSimResult
        Per-phase measurements and step rows on one continuous
        workload clock, and the plan.
    """
    if rate_method not in RATE_METHODS:
        # Validated up front, like simulate_plan: an all-matched phase
        # never reaches the allocator, and a silently accepted typo
        # would also skip the per-phase model-anchor check.
        raise SimulationError(
            f"unknown rate method {rate_method!r}; choose from {RATE_METHODS}"
        )
    if isinstance(item, WorkloadPlan):
        if (
            policy != "replan"
            or solver != "dp"
            or reconfiguration_model is not None
            or options
        ):
            raise SimulationError(
                "pass policy/solver/reconfiguration_model/options only when "
                "simulating a bare Workload; a WorkloadPlan already carries "
                "its policy and delay model"
            )
        planned = item
    elif isinstance(item, Workload):
        planned = plan_workload(
            item,
            policy=policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **options,
        )
    else:
        raise SimulationError(
            f"simulate_workload expects a Workload or WorkloadPlan, got "
            f"{type(item).__name__}"
        )

    workload = planned.workload
    topology = workload.build_topology()
    base = workload.base_configuration()
    phases: list[PhaseSimResult] = []
    clock = 0.0
    carried = base
    reconf_total = 0.0
    n_reconf = 0
    for phase in planned.phases:
        scenario = phase.plan.scenario
        schedule = phase.plan.schedule
        assert schedule is not None  # workload policies guarantee it
        collective = scenario.build_collective()
        simulator = FlowLevelSimulator(
            topology,
            scenario.cost,
            rate_method=rate_method,
            accounting="physical",
            reconfiguration_model=planned.model,
            cache=cache,
            # Per-phase fabric condition: a faulty() trace degrades some
            # phases and repairs others, all on the one shared fabric.
            health=scenario.health,
            live_topology=scenario.build_topology(),
        )
        result = simulator.run(
            collective,
            schedule,
            initial_configuration=carried,
            observe_rates=observe_rates,
        )

        if check_model and _should_check_phase(scenario, rate_method):
            gap = abs(result.total_time - phase.cost.total)
            if gap > _MODEL_RTOL * max(phase.cost.total, 1e-12):
                raise SimulationError(
                    f"phase {phase.index}: simulator ({result.total_time}) "
                    f"diverged from the physically accounted analytic total "
                    f"({phase.cost.total}) by {gap}"
                )

        utilization = (
            _utilization(
                scenario.build_topology(),
                collective,
                schedule,
                result,
                scenario,
                rate_method,
            )
            if collect_utilization
            else ()
        )
        phases.append(
            PhaseSimResult(
                index=phase.index,
                name=scenario.name,
                start=clock,
                end=clock + result.total_time,
                sim_time=result.total_time,
                analytic_time=phase.cost.total,
                eq7_time=phase.plan.total_time,
                reconfiguration_time=result.reconfiguration_time,
                n_reconfigurations=result.n_reconfigurations,
                steps=tuple(
                    replace(step, start=clock + step.start, end=clock + step.end)
                    for step in result.steps
                ),
                link_utilization=utilization,
                rate_observations=result.rate_observations,
            )
        )
        clock += result.total_time
        reconf_total += result.reconfiguration_time
        n_reconf += result.n_reconfigurations
        carried = (
            result.final_configuration
            if result.final_configuration is not None
            else base
        )
    return WorkloadSimResult(
        plan=planned,
        rate_method=rate_method,
        sim_time=clock,
        analytic_time=planned.total_time,
        reconfiguration_time=reconf_total,
        n_reconfigurations=n_reconf,
        phases=tuple(phases),
    )
