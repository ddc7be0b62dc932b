"""The closed loop: observe rates, estimate demand, replan on triggers.

An :class:`OnlineController` is the production-shaped planner the paper's
vision implies (§4: the domain "bends to the collective will" it
*infers*): each arriving phase it sees only a **skeleton** — the fabric,
the collective's algorithm and step structure, the cost scalars, and
the fabric's health, all of which a control plane legitimately knows —
while the demand intensity (the message size) is hidden and must be
estimated from the previous phases' :class:`~repro.sim.RateObservation`
telemetry.

The loop per phase:

1. :meth:`~OnlineController.decide` — infer the demand scale for the
   phase's structure from the running estimate, plan the phase with the
   physical-accounting DP against the *estimated* scenario (threading a
   carried circuit configuration, and a
   :class:`~repro.engine.PlanContext` so re-plans on pod fabrics are
   delta-priced), or reuse the structure's cached schedule when the
   replan trigger stays quiet;
2. the fabric executes whatever schedule the controller issued;
3. :meth:`~OnlineController.observe` — feed the realized per-flow rates
   back into the structure's estimator.

Replanning is governed by pluggable :class:`TriggerPolicy` objects —
periodic, estimate-drift-threshold, fault-triggered, their union, or
never (the static baseline regret is measured against).  A structure
never seen before is always planned (there is nothing to reuse); the
trigger only decides when an *existing* schedule is revisited.

The registered workload policies ``online-ewma`` / ``online-window`` /
``online-static`` (see :mod:`repro.control.policy`) run this loop
inside :func:`~repro.workload.plan_workload`, which then evaluates the
issued schedules against the *true* step costs — so the controller's
realized time is directly comparable to the clairvoyant ``oracle`` on
the same trace (:mod:`repro.analysis.regret`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.optimizer_dp import optimize_schedule_physical
from ..core.schedule import (
    Schedule,
    evaluate_schedule_physical,
    step_configuration,
)
from ..exceptions import ReproError
from ..fabric.reconfiguration import (
    Configuration,
    ConstantReconfigurationDelay,
    ReconfigurationModel,
    configuration_from_topology,
)
from ..flows import ThroughputCache, default_cache
from ..planner import Scenario
from ..units import MiB
from .estimator import DemandEstimator, make_estimator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.incremental import PlanContext
    from ..sim.observation import RateObservation

__all__ = [
    "ControlError",
    "mask_demand",
    "TriggerSignal",
    "TriggerPolicy",
    "AlwaysTrigger",
    "NeverTrigger",
    "PeriodicTrigger",
    "DriftTrigger",
    "FaultTrigger",
    "AnyTrigger",
    "make_trigger",
    "OnlineDecision",
    "OnlineController",
]

#: Demand scale assumed for a structure never observed before.
DEFAULT_PRIOR_MESSAGE_SIZE = MiB(1)


class ControlError(ReproError):
    """An online-control input or configuration was invalid."""


def mask_demand(scenario: Scenario) -> Scenario:
    """The controller-visible skeleton of a phase: everything except
    its demand intensity.

    Topology, algorithm (hence step structure and matchings), cost
    scalars, and fabric health are all legitimately observable by a
    control plane; the message size is what tenants do *not* declare.
    The masked scenario carries ``message_size=0`` so accidentally
    planning against it is glaringly wrong rather than subtly
    clairvoyant.
    """
    return scenario.replace(message_size=0.0)


# -- trigger policies --------------------------------------------------------


@dataclass(frozen=True)
class TriggerSignal:
    """What a trigger policy may condition on — all of it observable.

    Attributes
    ----------
    phase_index:
        Global arrival index of the phase being decided.
    phases_since_replan:
        Phases decided since the controller last planned (any
        structure).
    estimate_gap:
        Relative gap between the structure's current demand-scale
        estimate and the scale its cached schedule was planned for
        (``inf`` when the structure has no estimate yet).
    health_changed:
        Whether the fabric condition differs from the one the
        structure's cached schedule was planned under.
    """

    phase_index: int
    phases_since_replan: int
    estimate_gap: float
    health_changed: bool


class TriggerPolicy:
    """Decides whether an already-planned structure is replanned."""

    def should_replan(self, signal: TriggerSignal) -> bool:
        raise NotImplementedError


class AlwaysTrigger(TriggerPolicy):
    """Replan every phase (the online analogue of ``replan``)."""

    def should_replan(self, signal: TriggerSignal) -> bool:
        return True


class NeverTrigger(TriggerPolicy):
    """Never replan: each structure keeps its first schedule forever —
    the static baseline regret is measured against."""

    def should_replan(self, signal: TriggerSignal) -> bool:
        return False


@dataclass(frozen=True)
class PeriodicTrigger(TriggerPolicy):
    """Replan every ``every`` phases, drift or no drift."""

    every: int = 4

    def __post_init__(self) -> None:
        if int(self.every) < 1:
            raise ControlError(f"every must be >= 1 phase, got {self.every}")
        object.__setattr__(self, "every", int(self.every))

    def should_replan(self, signal: TriggerSignal) -> bool:
        return signal.phases_since_replan >= self.every


@dataclass(frozen=True)
class DriftTrigger(TriggerPolicy):
    """Replan when the estimate moved more than ``threshold`` (relative)
    away from the scale the standing schedule was planned for."""

    threshold: float = 0.1

    def __post_init__(self) -> None:
        if float(self.threshold) < 0:
            raise ControlError(
                f"threshold must be >= 0, got {self.threshold}"
            )
        object.__setattr__(self, "threshold", float(self.threshold))

    def should_replan(self, signal: TriggerSignal) -> bool:
        return signal.estimate_gap > self.threshold


class FaultTrigger(TriggerPolicy):
    """Replan when the fabric's condition changed since the structure
    was last planned (composes PR 5's fault stream into the loop)."""

    def should_replan(self, signal: TriggerSignal) -> bool:
        return signal.health_changed


@dataclass(frozen=True)
class AnyTrigger(TriggerPolicy):
    """Fires when any member fires (union of replanning reasons)."""

    triggers: tuple[TriggerPolicy, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "triggers", tuple(self.triggers))
        if not self.triggers:
            raise ControlError("AnyTrigger needs at least one member")

    def should_replan(self, signal: TriggerSignal) -> bool:
        return any(t.should_replan(signal) for t in self.triggers)


def make_trigger(
    spec: "str | TriggerPolicy",
    drift_threshold: float = 0.1,
    replan_every: int = 4,
) -> TriggerPolicy:
    """Build a trigger from a ``+``-separated name spec.

    Recognized atoms: ``always``, ``never``, ``periodic``, ``drift``,
    ``fault``.  ``"drift+fault"`` (the default controller policy) fires
    on estimate drift *or* a health change.  A :class:`TriggerPolicy`
    instance passes through unchanged.
    """
    if isinstance(spec, TriggerPolicy):
        return spec
    atoms = [part.strip() for part in str(spec).split("+") if part.strip()]
    if not atoms:
        raise ControlError(f"empty trigger spec {spec!r}")
    built: list[TriggerPolicy] = []
    for atom in atoms:
        if atom == "always":
            built.append(AlwaysTrigger())
        elif atom == "never":
            built.append(NeverTrigger())
        elif atom == "periodic":
            built.append(PeriodicTrigger(every=replan_every))
        elif atom == "drift":
            built.append(DriftTrigger(threshold=drift_threshold))
        elif atom == "fault":
            built.append(FaultTrigger())
        else:
            raise ControlError(
                f"unknown trigger {atom!r}; recognized: always, never, "
                "periodic, drift, fault (joined with '+')"
            )
    if len(built) == 1:
        return built[0]
    return AnyTrigger(tuple(built))


# -- the controller ----------------------------------------------------------


@dataclass(frozen=True)
class OnlineDecision:
    """What the controller committed for one arriving phase."""

    phase_index: int
    schedule: Schedule
    replanned: bool
    message_estimate: float
    predicted_time: float
    structure: str

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable; service responses)."""
        return {
            "phase_index": self.phase_index,
            "decisions": [d.value for d in self.schedule.decisions],
            "replanned": self.replanned,
            "message_estimate": self.message_estimate,
            "predicted_time": self.predicted_time,
            "structure": self.structure,
        }


@dataclass
class _StructureState:
    """Everything the controller keeps per distinct phase structure."""

    schedule: Schedule
    step_costs: tuple
    message_size: float
    health_fingerprint: object
    estimator: "DemandEstimator | None" = None
    unit_demand: float = 0.0


@dataclass
class ControllerStats:
    """Counters the controller accumulates (reports and benchmarks)."""

    phases: int = 0
    replans: int = 0
    structures: int = 0
    observations: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "phases": self.phases,
            "replans": self.replans,
            "structures": self.structures,
            "observations": self.observations,
        }


class OnlineController:
    """Plans arriving phases from estimated demand, observed rates in.

    Parameters
    ----------
    estimator:
        ``"ewma"``, ``"window"``, or ``None`` — ``None`` disables
        estimation entirely, so every structure is forever planned at
        the prior (the static-knowledge baseline).
    trigger:
        Replan trigger spec (see :func:`make_trigger`); default
        ``"drift+fault"``.
    prior_message_size:
        Demand scale assumed for structures never observed.
    reconfiguration_model:
        Transition-delay model; defaults to a constant delay equal to
        the first skeleton's ``alpha_r``.
    beta, window:
        Estimator parameters (forwarded to :func:`make_estimator`).
    drift_threshold, replan_every:
        Trigger parameters (forwarded to :func:`make_trigger`).
    cache:
        Shared theta memo for the estimated-scenario step costs.
    plan_context:
        A :class:`~repro.engine.PlanContext` threading incremental
        theta state across re-plans, so pod-fabric phases delta-price
        against the previous plan instead of solving cold.  A fresh
        context is created when none is given; the service daemon
        passes its resident one.
    """

    def __init__(
        self,
        estimator: "str | None" = "ewma",
        trigger: "str | TriggerPolicy" = "drift+fault",
        prior_message_size: float = DEFAULT_PRIOR_MESSAGE_SIZE,
        reconfiguration_model: "ReconfigurationModel | None" = None,
        beta: float = 0.5,
        window: int = 4,
        drift_threshold: float = 0.1,
        replan_every: int = 4,
        cache: "ThroughputCache | None" = default_cache,
        plan_context: "PlanContext | None" = None,
    ):
        if estimator is not None and estimator not in ("ewma", "window"):
            raise ControlError(
                f"unknown estimator {estimator!r}; choose 'ewma', 'window', "
                "or None for the static prior"
            )
        self.estimator_kind = estimator
        self.trigger = make_trigger(
            trigger,
            drift_threshold=drift_threshold,
            replan_every=replan_every,
        )
        self.prior_message_size = float(prior_message_size)
        if self.prior_message_size <= 0:
            raise ControlError(
                f"prior_message_size must be positive, got "
                f"{self.prior_message_size}"
            )
        self.model = reconfiguration_model
        self.beta = float(beta)
        self.window = int(window)
        self.cache = cache
        if plan_context is None:
            from ..engine.incremental import PlanContext

            plan_context = PlanContext()
        self.plan_context = plan_context
        self.stats = ControllerStats()
        self._structures: dict[str, _StructureState] = {}
        self._base: Configuration | None = None
        self._carried: Configuration | None = None
        self._phases_since_replan = 0
        self._last_structure: str | None = None
        self._last_delta = 0.0

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _structure_key(skeleton: Scenario) -> str:
        """Content key of a phase's demand-independent structure.

        Health is deliberately excluded: a degraded fabric is the same
        *structure* in a different condition, and whether that warrants
        replanning is the trigger's call (:class:`FaultTrigger`), not a
        cache miss.
        """
        return skeleton.replace(
            message_size=0.0, name="", health=None
        ).fingerprint()

    def _make_estimator(self, n: int) -> "DemandEstimator | None":
        if self.estimator_kind is None:
            return None
        if self.estimator_kind == "ewma":
            return make_estimator("ewma", n, beta=self.beta)
        return make_estimator("window", n, window=self.window)

    def _message_estimate(self, state: "_StructureState | None") -> float:
        """Demand scale inferred for a structure (prior when blind)."""
        if state is None or state.estimator is None:
            return self.prior_message_size
        estimate = state.estimator.estimate()
        if estimate is None or state.unit_demand <= 0:
            return self.prior_message_size
        return float(estimate.sum()) / state.unit_demand

    @staticmethod
    def _unit_demand(skeleton: Scenario) -> float:
        """Total aggregate demand of the structure at unit message size.

        Step volumes are linear in the message size, so dividing an
        observed demand total by this constant recovers the scale.
        """
        unit = skeleton.replace(message_size=1.0)
        return float(unit.build_collective().aggregate_demand().sum())

    def _ensure_fabric(self, skeleton: Scenario) -> None:
        if self._base is None:
            self._base = configuration_from_topology(
                skeleton.topology.build()
            )
            self._carried = self._base
        if self.model is None:
            self.model = ConstantReconfigurationDelay(
                skeleton.cost.reconfiguration_delay
            )

    # -- the loop ------------------------------------------------------------

    def decide(self, skeleton: Scenario) -> OnlineDecision:
        """Commit a schedule for one arriving phase skeleton.

        The skeleton's message size is ignored (mask it with
        :func:`mask_demand` to make that structural); everything else —
        topology, algorithm, cost scalars, health — is read.
        """
        self._ensure_fabric(skeleton)
        assert self._base is not None and self._carried is not None
        structure = self._structure_key(skeleton)
        state = self._structures.get(structure)
        estimate = self._message_estimate(state)
        health_fp = (
            None if skeleton.health is None else skeleton.health.fingerprint()
        )

        if state is None:
            replan = True  # nothing to reuse; not the trigger's call
        else:
            gap = (
                abs(estimate - state.message_size)
                / max(state.message_size, 1e-300)
                if state.estimator is not None
                and state.estimator.estimate() is not None
                else 0.0
            )
            replan = self.trigger.should_replan(
                TriggerSignal(
                    phase_index=self.stats.phases,
                    phases_since_replan=self._phases_since_replan,
                    estimate_gap=gap,
                    health_changed=state.health_fingerprint != health_fp,
                )
            )

        if replan:
            planned = skeleton.replace(message_size=estimate)
            from ..engine.incremental import prewarm_scenario_context

            prewarm_scenario_context(
                planned, self.plan_context, cache=self.cache
            )
            step_costs = planned.step_costs(cache=self.cache)
            result = optimize_schedule_physical(
                step_costs,
                planned.cost,
                self.model,
                self._base,
                initial_configuration=self._carried,
            )
            schedule = result.schedule
            predicted = result.cost.total
            if state is None:
                state = _StructureState(
                    schedule=schedule,
                    step_costs=tuple(step_costs),
                    message_size=estimate,
                    health_fingerprint=health_fp,
                    estimator=self._make_estimator(skeleton.topology.n),
                    unit_demand=self._unit_demand(skeleton),
                )
                self._structures[structure] = state
                self.stats.structures += 1
            else:
                state.schedule = schedule
                state.step_costs = tuple(step_costs)
                state.message_size = estimate
                state.health_fingerprint = health_fp
            self._phases_since_replan = 0
            self.stats.replans += 1
        else:
            assert state is not None
            schedule = state.schedule
            predicted = evaluate_schedule_physical(
                state.step_costs,
                schedule,
                skeleton.cost,
                self.model,
                self._base,
                initial_configuration=self._carried,
            ).total

        # The fabric will end this phase in the schedule's final
        # configuration — matchings are demand-independent, so the
        # estimated step costs name the same circuits the real run
        # establishes.
        self._carried = step_configuration(
            schedule.decisions[-1], state.step_costs[-1], self._base
        )
        decision = OnlineDecision(
            phase_index=self.stats.phases,
            schedule=schedule,
            replanned=replan,
            message_estimate=estimate,
            predicted_time=predicted,
            structure=structure,
        )
        self.stats.phases += 1
        self._phases_since_replan += 1
        self._last_structure = structure
        self._last_delta = skeleton.cost.delta
        return decision

    def observe(
        self,
        observations: "tuple[RateObservation, ...] | list[RateObservation]",
        delta: "float | None" = None,
    ) -> None:
        """Feed back the realized per-flow rates of the last decided
        phase (``delta`` defaults to that phase's propagation term)."""
        if self._last_structure is None:
            raise ControlError(
                "observe() before any decide(): observations belong to a "
                "decided phase"
            )
        state = self._structures[self._last_structure]
        self.stats.observations += len(observations)
        if state.estimator is not None:
            state.estimator.observe(
                observations,
                delta=self._last_delta if delta is None else float(delta),
            )

    # -- reporting -----------------------------------------------------------

    def estimates(self) -> dict[str, float]:
        """Current demand-scale estimate per known structure."""
        return {
            key: self._message_estimate(state)
            for key, state in self._structures.items()
        }
