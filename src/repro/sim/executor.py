"""Sim-in-the-loop execution of planned schedules.

The planner answers "reconfigure or not, per step?" analytically; this
module closes the loop by *executing* the answer on the flow-level
simulator and reporting what actually happened:

* :func:`simulate_plan` lowers a :class:`~repro.planner.PlanResult` (or
  plans a :class:`~repro.planner.Scenario` first) onto
  :class:`~repro.sim.FlowLevelSimulator`, returning a :class:`SimResult`
  with the measured completion time, per-step timing rows, link
  utilization on the base fabric, and the analytic prediction it was
  planned against;
* a sweep is a plain loop of :func:`simulate_plan` over one cache,
  like the planning loop :func:`repro.engine.plan_many`.

Under the idealized settings (``mcf`` rates, ``paper`` accounting) the
measured total provably equals the analytic Eq. 7 objective, and
:func:`simulate_plan` asserts that invariant; with ``maxmin`` or
``equal`` rates the gap *is* the measurement — how optimistic the
model's max-concurrent-flow assumption is for a real transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

from ..collectives.base import Collective, Step
from ..core.overlap import _resolve_compute_times
from ..core.schedule import Decision, Schedule
from ..exceptions import SimulationError
from ..fabric.degradation import FaultEvent
from ..fabric.reconfiguration import ReconfigurationModel
from ..flows import (
    ThroughputCache,
    commodities_from_matching,
    default_cache,
    max_concurrent_flow,
)
from .._validation import require_field as _require
from ..planner import PlanResult, Scenario, plan
from ..topology.base import Topology
from .flowsim import FlowLevelSimulator, SimStep, SimulationResult
from .observation import (
    RateObservations,
    observations_from_rows,
    observations_to_rows,
)
from .rates import RATE_METHODS

__all__ = ["SimResult", "simulate_plan"]

#: Relative tolerance of the simulator-equals-model correctness anchor.
_MODEL_RTOL = 1e-9


@dataclass(frozen=True)
class SimResult:
    """The measured outcome of executing one planned collective.

    The simulated twin of :class:`~repro.planner.PlanResult`: where the
    plan carries the solver's *predicted* completion time, a
    :class:`SimResult` carries what the flow-level simulator *measured*
    when the planned schedule was executed, step for step, plus the
    plan itself so the two are always comparable.  Round-trips through
    plain dicts (:meth:`to_dict` / :meth:`from_dict`) in the same style
    as :class:`~repro.planner.Scenario` and
    :class:`~repro.planner.PlanResult`.

    Attributes
    ----------
    plan:
        The plan that was executed (scenario, solver, schedule, and the
        analytic cost prediction).
    rate_method:
        Flow-rate allocation used on the base topology (``"mcf"``,
        ``"maxmin"``, or ``"equal"``).
    accounting:
        Reconfiguration accounting mode (``"paper"`` or ``"physical"``).
    sim_time:
        Measured completion time of the collective in seconds.
    analytic_time:
        The solver's predicted completion time (``plan.total_time``).
    reconfiguration_time:
        Total measured time spent reconfiguring the fabric.
    n_reconfigurations:
        Number of reconfiguration intervals the simulator executed.
    steps:
        Per-step timing rows, in execution order.
    link_utilization:
        ``((u, v), fraction)`` pairs for every base-topology link that
        carried traffic: the fraction of ``capacity * makespan`` the
        link spent transmitting.  Matched steps run on dedicated
        circuits and do not load base links.  Empty when utilization
        collection was disabled.
    fault_log:
        Mid-run health changes the simulator applied: ``(time, kind,
        label)`` rows, kind ``"inject"`` or ``"repair"``.  Empty for
        fault-free runs.  ``fault_pod_log`` aligns with it on
        pod-structured fabrics: ``(time, dirty_pods)`` rows naming the
        pods whose edges each transition changed — the pods a re-price
        cannot serve from the block solver's memos.  When ``fault_log``
        is non-empty the plan did *not* see the faults coming, so :attr:`slowdown` (measured over planned) is
        the achieved-vs-planned degradation report.
    rate_observations:
        Per-flow achieved-rate telemetry
        (:class:`~repro.sim.RateObservation` rows, execution order) —
        collected when the run asked for ``observe_rates=True``, empty
        otherwise.  Serialized by :meth:`to_dict`, so they survive the
        service boundary intact (the daemon's ``simulate`` responses
        carry them to the online controller on the far side).
    """

    plan: PlanResult
    rate_method: str
    accounting: str
    sim_time: float
    analytic_time: float
    reconfiguration_time: float
    n_reconfigurations: int
    steps: tuple[SimStep, ...]
    link_utilization: tuple[tuple[tuple[object, object], float], ...] = ()
    fault_log: tuple[tuple[float, str, str], ...] = ()
    fault_pod_log: tuple[tuple[float, tuple[int, ...]], ...] = ()
    rate_observations: RateObservations | tuple[()] = ()

    # -- conveniences --------------------------------------------------------

    @property
    def scenario(self) -> Scenario:
        """The scenario that was planned and executed."""
        return self.plan.scenario

    @property
    def solver(self) -> str:
        """Name of the solver that produced the executed schedule."""
        return self.plan.solver

    @property
    def decisions(self) -> tuple[str, ...]:
        """Per-step decision labels of the executed schedule."""
        return self.plan.decisions

    @property
    def model_error(self) -> float:
        """Relative gap between measured and predicted completion time."""
        if self.analytic_time == 0:
            return 0.0
        return abs(self.sim_time - self.analytic_time) / self.analytic_time

    @property
    def communication_time(self) -> float:
        """Sum of per-step communication durations."""
        return sum(step.duration for step in self.steps)

    @property
    def max_link_utilization(self) -> float:
        """The busiest base link's utilization (0.0 if none collected)."""
        return max((value for _, value in self.link_utilization), default=0.0)

    @property
    def slowdown(self) -> float:
        """Measured over planned completion time (>= 1.0 means the run
        underperformed the plan — e.g. unplanned mid-run faults)."""
        if self.analytic_time == 0:
            return 1.0 if self.sim_time == 0 else math.inf
        return self.sim_time / self.analytic_time

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        out: dict[str, object] = {
            "plan": self.plan.to_dict(),
            "rate_method": self.rate_method,
            "accounting": self.accounting,
            "sim_time": self.sim_time,
            "analytic_time": self.analytic_time,
            "reconfiguration_time": self.reconfiguration_time,
            "n_reconfigurations": self.n_reconfigurations,
            "steps": [step.to_dict() for step in self.steps],
            "link_utilization": [
                [[u, v], value] for (u, v), value in self.link_utilization
            ],
            "fault_log": [
                [time, kind, label] for time, kind, label in self.fault_log
            ],
            "fault_pod_log": [
                [time, list(pods)] for time, pods in self.fault_pod_log
            ],
        }
        if self.rate_observations:
            out["rate_observations"] = observations_to_rows(
                self.rate_observations
            )
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            plan=PlanResult.from_dict(_require(data, "plan", "sim result")),
            rate_method=str(_require(data, "rate_method", "sim result")),
            accounting=str(_require(data, "accounting", "sim result")),
            sim_time=float(_require(data, "sim_time", "sim result")),
            analytic_time=float(_require(data, "analytic_time", "sim result")),
            reconfiguration_time=float(
                _require(data, "reconfiguration_time", "sim result")
            ),
            n_reconfigurations=int(
                _require(data, "n_reconfigurations", "sim result")
            ),
            steps=tuple(SimStep.from_dict(s) for s in data.get("steps", ())),
            link_utilization=tuple(
                ((edge[0], edge[1]), float(value))
                for edge, value in data.get("link_utilization", ())
            ),
            fault_log=tuple(
                (float(time), str(kind), str(label))
                for time, kind, label in data.get("fault_log", ())
            ),
            fault_pod_log=tuple(
                (float(time), tuple(int(p) for p in pods))
                for time, pods in data.get("fault_pod_log", ())
            ),
            rate_observations=observations_from_rows(
                data.get("rate_observations", ())
            ),
        )


# -- lowering ----------------------------------------------------------------


def _utilization(
    topology: Topology,
    collective: Collective,
    schedule: Schedule,
    result: SimulationResult,
    scenario: Scenario,
    rate_method: str,
) -> tuple[tuple[tuple[object, object], float], ...]:
    """Bits shipped per base link, as a fraction of capacity * makespan.

    For ``maxmin`` / ``equal`` rates the flows follow the same shortest
    paths the allocator priced, so the accounting is exact.  For
    ``"mcf"`` the LP's optimal edge flows are recovered (one extra LP
    solve per distinct base-step pattern) so split paths are credited to
    the links that actually carried them.  Matched steps run on
    dedicated circuits and leave base links idle.
    """
    makespan = result.total_time
    if makespan <= 0:
        return ()
    bits: dict[tuple[object, object], float] = {}
    mcf_flows: dict[object, tuple[float, tuple]] = {}
    for step, decision in zip(collective.steps, schedule.decisions):
        if decision is Decision.MATCHED:
            continue
        if step.volume <= 0 or len(step.matching) == 0:
            continue
        if rate_method == "mcf":
            solved = mcf_flows.get(step.matching)
            if solved is None:
                lp = max_concurrent_flow(
                    topology,
                    commodities_from_matching(step.matching),
                    reference_rate=scenario.cost.bandwidth,
                    return_flows=True,
                )
                solved = (lp.theta, lp.edge_flows)
                mcf_flows[step.matching] = solved
            theta, edge_flows = solved
            if theta <= 0 or edge_flows is None:
                continue
            # Each commodity ships theta units of theta-scaled demand;
            # the fraction of its step.volume bits crossing edge e is
            # f_k(e) / theta.
            for flows in edge_flows:
                for edge, flow in flows.items():
                    bits[edge] = bits.get(edge, 0.0) + step.volume * flow / theta
        else:
            for src, dst in step.matching:
                path = topology.shortest_path(src, dst)
                for edge in zip(path, path[1:]):
                    bits[edge] = bits.get(edge, 0.0) + step.volume
    return tuple(
        sorted(
            (
                (edge, volume / (topology.capacity(*edge) * makespan))
                for edge, volume in bits.items()
            ),
            key=lambda item: repr(item[0]),
        )
    )


def _should_check_model(
    planned: PlanResult,
    scenario: Scenario,
    rate_method: str,
    accounting: str,
) -> bool:
    """Whether sim total must provably equal the analytic objective."""
    return (
        planned.cost is not None
        and rate_method == "mcf"
        and accounting == "paper"
        and scenario.theta_method == "auto"
        and not math.isinf(planned.total_time)
    )


def simulate_plan(
    item: PlanResult | Scenario,
    solver: str = "dp",
    rate_method: str = "mcf",
    accounting: str = "paper",
    reconfiguration_model: ReconfigurationModel | None = None,
    collect_utilization: bool = True,
    check_model: bool = True,
    cache: ThroughputCache | None = default_cache,
    faults: "tuple[FaultEvent, ...] | list[FaultEvent]" = (),
    observe_rates: bool = False,
    **options,
) -> SimResult:
    """Execute a planned collective on the flow-level simulator.

    A plan that carries ``compute_times`` metadata (the ``overlap``
    solver's) runs with those compute windows after its steps, each
    overlapping the reconfiguration that follows, exactly as the plan
    was priced; the model anchor covers it like any other plan.

    Parameters
    ----------
    item:
        A finished :class:`~repro.planner.PlanResult` to execute, or a
        :class:`~repro.planner.Scenario` to plan first (with ``solver``
        and ``options``) and then execute.
    solver:
        Solver name for bare scenarios; must stay at its default when a
        prepared plan is given.
    rate_method:
        Per-step flow rate policy on the base topology (``"mcf"``,
        ``"maxmin"``, or ``"equal"``; see :mod:`repro.sim.rates`).
    accounting:
        ``"paper"`` (Eq. 7 semantics) or ``"physical"`` (explicit
        circuit tracking via ``reconfiguration_model``).
    reconfiguration_model:
        Only for ``"physical"`` accounting; defaults to a constant
        ``alpha_r`` delay.
    collect_utilization:
        Also derive per-link utilization of the base fabric (an extra
        LP solve per distinct base-step pattern under ``"mcf"``).
    check_model:
        Under the idealized settings, raise
        :class:`~repro.exceptions.SimulationError` if the measured total
        diverges from the analytic prediction beyond float tolerance —
        the executor's correctness anchor.
    cache:
        Shared theta memo (also used when planning bare scenarios).
    faults:
        :class:`~repro.fabric.FaultEvent` schedule applied mid-run (the
        plan does not see it coming): the fabric degrades or repairs at
        step boundaries and the result's :attr:`SimResult.slowdown`
        reports the achieved-vs-planned gap.  The model-equality anchor
        is skipped (the divergence is the measurement), and link
        utilization is not collected — it cannot be attributed to one
        topology when capacities change mid-run.
    observe_rates:
        Record per-flow achieved-rate telemetry
        (:class:`~repro.sim.RateObservation` rows) in the result — the
        feed the online-control estimators de-censor.  Off by default.
    options:
        Solver-specific options for bare scenarios (e.g.
        ``compute_times`` for the overlap solver).

    Returns
    -------
    SimResult
        Measured timing, per-step rows, link utilization, and the plan.
    """
    if rate_method not in RATE_METHODS:
        # Validated here and not only in allocate_rates: an all-matched
        # schedule never reaches the allocator, and a silently accepted
        # typo would also skip the model-check anchor.
        raise SimulationError(
            f"unknown rate method {rate_method!r}; choose from {RATE_METHODS}"
        )
    if isinstance(item, PlanResult):
        if solver != "dp" or options:
            raise SimulationError(
                "pass solver/options only when simulating a Scenario; a "
                "PlanResult already carries its solver choice"
            )
        planned = item
    elif isinstance(item, Scenario):
        planned = plan(item, solver=solver, cache=cache, **options)
    else:
        raise SimulationError(
            f"simulate_plan expects a Scenario or PlanResult, got "
            f"{type(item).__name__}"
        )
    scenario = planned.scenario
    if scenario.multiport_radix is not None:
        raise SimulationError(
            "the flow-level simulator executes single-port schedules only "
            "(multiport_radix must be None)"
        )
    if planned.schedule is None:
        raise SimulationError(
            f"solver {planned.solver!r} produced a plan without a two-state "
            "schedule (pool-state plans are not executable on the flow "
            "simulator yet)"
        )

    # The simulator receives the *intended* fabric plus its condition;
    # flows run on the degraded instance it derives.  Utilization and
    # step accounting below use the same degraded view.
    topology = scenario.build_topology()
    collective = scenario.build_collective()
    # An overlap plan was priced with a compute window after each step
    # hiding the next reconfiguration; the run executes the same windows.
    windows = planned.metadata_dict.get("compute_times")
    if windows is not None:
        times = _resolve_compute_times(collective.steps, windows)
        collective = Collective(
            collective.name, collective.kind, collective.n,
            collective.message_size,
            [
                Step(step.matching, step.volume, compute_time=t, label=step.label)
                for step, t in zip(collective.steps, times)
            ],
            collective.chunk_size, collective.n_chunks, collective.metadata,
        )
    simulator = FlowLevelSimulator(
        scenario.topology.build(),
        scenario.cost,
        rate_method=rate_method,
        accounting=accounting,
        reconfiguration_model=reconfiguration_model,
        cache=cache,
        health=scenario.health,
        live_topology=topology,
    )
    result = simulator.run(
        collective,
        planned.schedule,
        compute_overlap=windows is not None,
        faults=tuple(faults),
        observe_rates=observe_rates,
    )

    # Gate the anchor on faults actually *applied*: an event scheduled
    # past the run end leaves the run fault-free, and the invariant
    # must still hold there.
    if check_model and not result.fault_log and _should_check_model(
        planned, scenario, rate_method, accounting
    ):
        gap = abs(result.total_time - planned.total_time)
        if gap > _MODEL_RTOL * max(planned.total_time, 1e-12):
            raise SimulationError(
                f"simulator ({result.total_time}) diverged from the "
                f"planned analytic total ({planned.total_time}) by {gap}"
            )

    utilization = (
        _utilization(
            topology,
            collective,
            planned.schedule,
            result,
            scenario,
            rate_method,
        )
        if collect_utilization and not result.fault_log
        else ()
    )
    return SimResult(
        plan=planned,
        rate_method=rate_method,
        accounting=accounting,
        sim_time=result.total_time,
        analytic_time=planned.total_time,
        reconfiguration_time=result.reconfiguration_time,
        n_reconfigurations=result.n_reconfigurations,
        steps=result.steps,
        link_utilization=utilization,
        fault_log=result.fault_log,
        fault_pod_log=result.fault_pod_log,
        rate_observations=result.rate_observations,
    )
