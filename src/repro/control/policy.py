"""The online controller as registered workload policies.

``online-ewma``, ``online-window``, and ``online-static`` plug the
:class:`~repro.control.OnlineController` loop into the standard policy
registry, so every existing comparison surface — ``plan_workload``,
``simulate_workload``, :func:`~repro.analysis.compare_policies`, the
experiment grids, the service daemon — can run the estimation-driven
planner next to ``replan`` / ``hysteresis`` / ``oracle`` unchanged.

Information honesty: the policy *never* hands the controller a phase's
true demand.  Each phase it (1) masks the scenario's message size and
asks the controller to :meth:`~repro.control.OnlineController.decide`,
(2) executes the committed schedule on the flow simulator under the
**true** scenario — physical accounting, carried circuit configuration,
``observe_rates=True`` — and (3) feeds the realized telemetry back via
:meth:`~repro.control.OnlineController.observe`.  The controller's
realized cost then comes from :func:`~repro.workload.plan_workload`
evaluating the committed schedules against the true step costs, so an
estimation mistake is *paid for*, not hidden.

``online-static`` is the never-replanning, never-estimating baseline
(each structure planned once at the prior): the floor
:mod:`repro.analysis.regret` requires the adaptive controllers to beat.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

from ..core.schedule import Schedule
from ..exceptions import WorkloadError
from ..sim.flowsim import FlowLevelSimulator
from ..workload.policies import (
    PolicyContext,
    _policy_options,
    register_policy,
)
from .controller import (
    DEFAULT_PRIOR_MESSAGE_SIZE,
    OnlineController,
    make_trigger,
    mask_demand,
)

__all__ = ["ONLINE_POLICIES", "run_controller_loop"]

#: name -> (estimator kind, default trigger spec)
ONLINE_POLICIES: dict[str, tuple["str | None", str]] = {
    "online-ewma": ("ewma", "drift+fault"),
    "online-window": ("window", "drift+fault"),
    "online-static": (None, "never"),
}


def _number(value: object) -> float:
    """``value`` as a float; a boolean is refused, not read as 0 or 1,
    and a string is refused, not parsed (``"0.5"`` is not a number)."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _integer(value: object) -> int:
    """``value`` as an int; a fractional number is refused, not
    truncated (an integral float such as ``4.0`` is accepted)."""
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"{value!r} is not integral")
    return int(number)


#: Options every online policy accepts: name -> (parser, default).  A
#: missing or ``None`` value takes the default; the trigger's default is
#: the policy's own (``ONLINE_POLICIES``).
_ONLINE_OPTIONS = {
    "prior_message_size": (_number, DEFAULT_PRIOR_MESSAGE_SIZE),
    "trigger": (str, None),
    "drift_threshold": (_number, 0.1),
    "replan_every": (_integer, 4),
    "beta": (_number, 0.5),
    "window": (_integer, 4),
}


def _online_options(
    policy: str, options: Mapping[str, object]
) -> dict[str, object]:
    """An online policy's options as :class:`OnlineController` keyword
    arguments, defaults filled in and the trigger built.

    Raises :class:`~repro.exceptions.ReproError` for a name no online
    policy takes, a value its parser refuses or that is out of range
    (checked whichever policy is named), or a trigger spec
    :func:`~repro.control.make_trigger` rejects — before any controller
    exists, so the service validator can answer it at admission.
    """
    options = _policy_options(options, _ONLINE_OPTIONS)
    estimator, default_trigger = ONLINE_POLICIES[policy]
    parsed: dict[str, object] = {}
    for name, (parse, default) in _ONLINE_OPTIONS.items():
        value = options.get(name)
        if value is None:
            value = default_trigger if name == "trigger" else default
        try:
            parsed[name] = parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            kind = "an integer" if parse is _integer else "a number"
            raise WorkloadError(
                f"online option {name!r} must be {kind}, got {value!r}"
            ) from exc
    # Each check is written so that NaN fails it.
    for name, in_range, bound in (
        ("beta", 0 < parsed["beta"] <= 1, "in (0, 1]"),
        ("window", parsed["window"] >= 1, ">= 1"),
        ("replan_every", parsed["replan_every"] >= 1, ">= 1"),
        ("drift_threshold", 0 <= parsed["drift_threshold"] < math.inf,
         "finite and >= 0"),
        ("prior_message_size", 0 < parsed["prior_message_size"] < math.inf,
         "finite and > 0"),
    ):
        if not in_range:
            raise WorkloadError(
                f"online option {name!r} must be {bound}, got {parsed[name]!r}"
            )
    parsed["trigger"] = make_trigger(
        parsed["trigger"],
        drift_threshold=parsed.pop("drift_threshold"),
        replan_every=parsed.pop("replan_every"),
    )
    return {"estimator": estimator, **parsed}


def _online_controller(
    policy: str, options: Mapping[str, object], **kwargs
) -> OnlineController:
    """The :class:`OnlineController` online ``policy`` runs under
    ``options``; ``kwargs`` (cache, reconfiguration model) pass
    through."""
    return OnlineController(**_online_options(policy, options), **kwargs)


def run_controller_loop(
    controller: OnlineController,
    context: PolicyContext,
) -> list[Schedule]:
    """Drive the decide → execute → observe loop over a workload.

    The realized execution mirrors what :func:`~repro.sim.simulate_workload`
    will do with the committed schedules — physical accounting, the
    workload's reconfiguration model, per-phase health, carried circuit
    state — so the telemetry the controller learns from is exactly what
    the fabric would report.
    """
    workload = context.workload
    topology = workload.build_topology()
    base = workload.base_configuration()
    carried = base
    schedules: list[Schedule] = []
    for scenario in workload.phases:
        decision = controller.decide(mask_demand(scenario))
        simulator = FlowLevelSimulator(
            topology,
            scenario.cost,
            rate_method="mcf",
            accounting="physical",
            reconfiguration_model=context.model,
            cache=context.cache,
            health=scenario.health,
            live_topology=scenario.build_topology(),
        )
        result = simulator.run(
            scenario.build_collective(),
            decision.schedule,
            initial_configuration=carried,
            observe_rates=True,
        )
        controller.observe(
            result.rate_observations, delta=scenario.cost.delta
        )
        carried = (
            result.final_configuration
            if result.final_configuration is not None
            else base
        )
        schedules.append(decision.schedule)
    return schedules


def _online_policy(name: str):
    def policy(context: PolicyContext) -> Sequence[Schedule]:
        controller = _online_controller(
            name,
            context.options,
            reconfiguration_model=context.model,
            cache=context.cache,
        )
        return run_controller_loop(controller, context)

    return policy


for _name in ONLINE_POLICIES:
    register_policy(_name, _online_policy(_name))
del _name
