"""Online workload-planning policies and the ``plan_workload`` driver.

A *policy* decides, phase by phase, which schedule each collective in a
:class:`~repro.workload.Workload` runs — threading the fabric's carried
circuit configuration from one phase into the opening cost of the next,
priced by a pluggable
:class:`~repro.fabric.reconfiguration.ReconfigurationModel`.  Built-ins:

``replan``
    Plan every phase independently with the registry solver under the
    paper's memoryless Eq. 7 accounting (constant ``alpha_r``, fabric
    assumed to start in base).  The natural baseline: what a per-kernel
    planner does today, evaluated honestly against the physical model.
``hysteresis``
    Carried-state-aware: each phase is solved with the physical-model
    DP seeded with the inherited configuration (reusing the standing
    circuits is free), and a ``threshold`` option resists churn — a
    plan that opens with a reconfiguration is only adopted when it
    beats the best keep-the-standing-configuration plan by more than
    the threshold fraction.
``oracle``
    Full-horizon optimum: one physical-model DP over the concatenated
    step sequence of all phases, so it also *positions* each phase's
    ending configuration to serve the next.  Requires all phases to
    share one set of cost scalars.

Policies are registered by name (mirroring the solver registry) so
downstream code can plug in its own online strategies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from collections.abc import Callable, Collection, Mapping, Sequence
from typing import TYPE_CHECKING

from ..core.cost_model import StepCost
from ..core.optimizer_dp import optimize_schedule_physical
from ..core.schedule import (
    Decision,
    Schedule,
    evaluate_schedule,
    evaluate_schedule_physical,
    step_configuration,
)
from ..exceptions import WorkloadError
from ..fabric.reconfiguration import (
    Configuration,
    ConstantReconfigurationDelay,
    ReconfigurationModel,
)
from ..flows import ThroughputCache, default_cache
from ..planner import PlanRequest, PlanResult, plan
from .result import PhasePlan, WorkloadPlan
from .spec import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.incremental import PlanContext

__all__ = [
    "PolicyContext",
    "PolicyFn",
    "register_policy",
    "unregister_policy",
    "available_policies",
    "get_policy",
    "plan_workload",
]


@dataclass
class PolicyContext:
    """Everything a policy needs to choose one schedule per phase."""

    workload: Workload
    phase_step_costs: tuple[tuple[StepCost, ...], ...]
    base_configuration: Configuration
    model: ReconfigurationModel
    solver: str
    cache: "ThroughputCache | None"
    options: dict[str, object]


#: A policy maps the planning context to one schedule per phase.
PolicyFn = Callable[[PolicyContext], Sequence[Schedule]]

_POLICIES: dict[str, PolicyFn] = {}
_REGISTRY_LOCK = threading.Lock()


def register_policy(name: str, fn: PolicyFn, *, overwrite: bool = False) -> None:
    """Register a workload policy under ``name`` (duplicates raise
    unless ``overwrite=True``, like the solver registry)."""
    if not callable(fn):
        raise WorkloadError(f"policy {name!r} must be callable, got {fn!r}")
    name = str(name)
    if not name:
        raise WorkloadError("policy name must be non-empty")
    with _REGISTRY_LOCK:
        if name in _POLICIES and not overwrite:
            raise WorkloadError(
                f"policy {name!r} is already registered; pass overwrite=True "
                "to replace it"
            )
        _POLICIES[name] = fn


def unregister_policy(name: str) -> None:
    """Remove a registered policy (primarily for tests)."""
    with _REGISTRY_LOCK:
        if name not in _POLICIES:
            raise WorkloadError(f"policy {name!r} is not registered")
        del _POLICIES[name]


def _load_extension_policies() -> None:
    """Register the policies that live outside this module.

    The online-control policies (``online-ewma`` / ``online-window`` /
    ``online-static``) are defined in :mod:`repro.control`, which
    imports *this* module — so they register lazily, on the first
    lookup that would otherwise miss, instead of at import time.
    """
    from .. import control  # noqa: F401  (import side effect: registration)


def available_policies() -> tuple[str, ...]:
    """Sorted names of all registered workload policies."""
    _load_extension_policies()
    with _REGISTRY_LOCK:
        return tuple(sorted(_POLICIES))


def get_policy(name: str) -> PolicyFn:
    """Look up a policy by name."""
    with _REGISTRY_LOCK:
        fn = _POLICIES.get(name)
    if fn is None:
        _load_extension_policies()
        with _REGISTRY_LOCK:
            fn = _POLICIES.get(name)
    if fn is None:
        raise WorkloadError(
            f"unknown policy {name!r}; available: {available_policies()}"
        )
    return fn


def _policy_options(
    options: Mapping[str, object], allowed: Collection[str]
) -> dict[str, object]:
    """A policy's options, rejecting anything the policy ignores."""
    unknown = set(options) - set(allowed)
    if unknown:
        raise WorkloadError(
            f"policy does not accept options {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    return dict(options)


def _ending_configuration(
    schedule: Schedule,
    step_costs: Sequence[StepCost],
    base: Configuration,
) -> Configuration:
    """Configuration the fabric holds after the schedule's last step."""
    return step_configuration(schedule.decisions[-1], step_costs[-1], base)


# -- built-in policies -------------------------------------------------------


def _replan(context: PolicyContext) -> list[Schedule]:
    """Plan every phase independently with the registry solver."""
    schedules = []
    for scenario in context.workload.phases:
        result = plan(
            scenario,
            solver=context.solver,
            cache=context.cache,
            **context.options,
        )
        if result.schedule is None:
            raise WorkloadError(
                f"solver {context.solver!r} produced a plan without a "
                "two-state schedule; workload policies need executable "
                "schedules"
            )
        schedules.append(result.schedule)
    return schedules


def _hold_decision(
    carried: Configuration,
    first_cost: StepCost,
    base: Configuration,
) -> "Decision | None":
    """The first-step decision that keeps the carried configuration
    standing, or ``None`` when no decision can (the phase must
    reconfigure no matter what)."""
    if carried == base:
        return Decision.BASE
    if (
        first_cost.matching is not None
        and frozenset(first_cost.matching.pairs) == carried
    ):
        return Decision.MATCHED
    return None


def _hysteresis(context: PolicyContext) -> list[Schedule]:
    """Physical-model DP per phase, sticky about the standing circuits."""
    options = _policy_options(context.options, ("threshold",))
    threshold = float(options.get("threshold", 0.0))
    if threshold < 0:
        raise WorkloadError(f"threshold must be >= 0, got {threshold}")
    base = context.base_configuration
    carried = base
    schedules = []
    for scenario, step_costs in zip(
        context.workload.phases, context.phase_step_costs
    ):
        candidate = optimize_schedule_physical(
            step_costs,
            scenario.cost,
            context.model,
            base,
            initial_configuration=carried,
        )
        chosen = candidate
        opening = step_configuration(
            candidate.schedule.decisions[0], step_costs[0], base
        )
        hold_first = _hold_decision(carried, step_costs[0], base)
        if hold_first is not None and opening != carried:
            # The unconstrained optimum wants an opening reconfiguration;
            # only churn when it is worth more than the threshold.
            hold = optimize_schedule_physical(
                step_costs,
                scenario.cost,
                context.model,
                base,
                initial_configuration=carried,
                force_first=hold_first,
            )
            if not candidate.cost.total < hold.cost.total * (1 - threshold):
                chosen = hold
        schedules.append(chosen.schedule)
        carried = _ending_configuration(chosen.schedule, step_costs, base)
    return schedules


def _oracle(context: PolicyContext) -> list[Schedule]:
    """Full-horizon physical-model DP over all phases at once."""
    _policy_options(context.options, ())
    phases = context.workload.phases
    shared_cost = phases[0].cost
    for index, scenario in enumerate(phases):
        if scenario.cost != shared_cost:
            raise WorkloadError(
                f"the oracle policy needs one set of cost scalars across "
                f"phases, but phase {index} differs from phase 0; use "
                "'hysteresis' for heterogeneous-cost workloads"
            )
    flat: list[StepCost] = []
    for step_costs in context.phase_step_costs:
        flat.extend(step_costs)
    joint = optimize_schedule_physical(
        flat,
        shared_cost,
        context.model,
        context.base_configuration,
    )
    schedules = []
    cursor = 0
    for step_costs in context.phase_step_costs:
        span = joint.schedule.decisions[cursor : cursor + len(step_costs)]
        schedules.append(Schedule(tuple(span)))
        cursor += len(step_costs)
    return schedules


register_policy("replan", _replan)
register_policy("hysteresis", _hysteresis)
register_policy("oracle", _oracle)


# -- the front door ----------------------------------------------------------


def plan_workload(
    workload: Workload,
    policy: str = "replan",
    solver: str = "dp",
    reconfiguration_model: ReconfigurationModel | None = None,
    cache: "ThroughputCache | None" = default_cache,
    plan_context: "PlanContext | None" = None,
    **options,
) -> WorkloadPlan:
    """Plan a multi-phase workload with the named online policy.

    Parameters
    ----------
    workload:
        The ordered phases to serve on the shared fabric.
    policy:
        A name from :func:`available_policies` (``replan``,
        ``hysteresis``, ``oracle``, or a registered custom policy).
    solver:
        Registry solver used by policies that plan phases through the
        Eq. 7 planner (``replan``); the physical-DP policies ignore it
        for schedule choice but carry it in the result for provenance.
    reconfiguration_model:
        Delay model pricing every configuration transition.  Defaults
        to a constant delay equal to the first phase's ``alpha_r`` —
        the paper's model, minus its double-charging of identical
        consecutive configurations.
    cache:
        Shared theta memo (phases of a trace repeat patterns heavily,
        so one cache makes whole workloads nearly free after phase 0).
    plan_context:
        A :class:`~repro.engine.PlanContext` carrying incremental theta
        state across phases (and across calls — the service daemon
        passes its resident context).  With one, exact phases on pod
        fabrics are priced *incrementally*, phase k delta-solving
        against phase k-1 — health drift or demand drift re-solves only
        the pods that changed — before the step costs below are
        evaluated, so the policy's planning reads warm exact values.
        Every policy accepts it; the values are the same as without.
    options:
        Policy-specific options (e.g. ``threshold`` for hysteresis) or,
        for ``replan``, solver options forwarded to the planner.

    Returns
    -------
    WorkloadPlan
        Per-phase plans with carried configurations and physically
        accounted totals.
    """
    model = (
        reconfiguration_model
        if reconfiguration_model is not None
        else ConstantReconfigurationDelay(
            workload.phases[0].cost.reconfiguration_delay
        )
    )
    base = workload.base_configuration()
    if plan_context is not None:
        # Incremental prewarm before step costs: phase k's exact pod
        # theta values delta-solve against phase k-1's parts and land
        # in the cache the step-cost pass below reads.
        from ..engine.incremental import prewarm_workload_context

        prewarm_workload_context(workload, plan_context, cache=cache)
    phase_step_costs = tuple(
        scenario.step_costs(cache=cache) for scenario in workload.phases
    )
    fn = get_policy(policy)
    schedules = list(
        fn(
            PolicyContext(
                workload=workload,
                phase_step_costs=phase_step_costs,
                base_configuration=base,
                model=model,
                solver=solver,
                cache=cache,
                options=dict(options),
            )
        )
    )
    if len(schedules) != len(workload.phases):
        raise WorkloadError(
            f"policy {policy!r} returned {len(schedules)} schedules for "
            f"{len(workload.phases)} phases"
        )

    phases: list[PhasePlan] = []
    carried = base
    total = 0.0
    reconf_time = 0.0
    n_reconf = 0
    for index, (scenario, step_costs, schedule) in enumerate(
        zip(workload.phases, phase_step_costs, schedules)
    ):
        if schedule.num_steps != len(step_costs):
            raise WorkloadError(
                f"policy {policy!r} returned a {schedule.num_steps}-step "
                f"schedule for the {len(step_costs)}-step phase {index}"
            )
        physical = evaluate_schedule_physical(
            step_costs,
            schedule,
            scenario.cost,
            model,
            base,
            initial_configuration=carried,
        )
        opening = model.delay(
            carried, step_configuration(schedule.decisions[0], step_costs[0], base)
        )
        eq7 = evaluate_schedule(step_costs, schedule, scenario.cost)
        plan_result = PlanResult.from_schedule(
            PlanRequest(scenario=scenario, solver=solver),
            schedule,
            eq7,
            solver=solver,
            metadata={"policy": policy, "phase": index},
        )
        ending = _ending_configuration(schedule, step_costs, base)
        phases.append(
            PhasePlan(
                index=index,
                plan=plan_result,
                cost=physical,
                opening_delay=opening,
                carried_in=None if carried == base else tuple(sorted(carried)),
                carried_out=None if ending == base else tuple(sorted(ending)),
            )
        )
        total += physical.total
        reconf_time += physical.reconfiguration_term
        n_reconf += physical.n_reconfigurations
        carried = ending
    return WorkloadPlan(
        workload=workload,
        policy=policy,
        solver=solver,
        model=model,
        phases=tuple(phases),
        total_time=total,
        reconfiguration_time=reconf_time,
        n_reconfigurations=n_reconf,
    )
