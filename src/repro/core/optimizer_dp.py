"""Exact dynamic-programming solver for the Eq. 7 schedule ILP.

The paper observes that the 0-1 ILP has sequential structure — ``x_i``
and ``z_i`` depend only on step ``i-1`` — so the principle of optimality
yields an ``O(s)`` dynamic program over two states per step (current
configuration = base or matched).  :func:`_solve_two_state` is that DP;
each accounting only gives it its own transition table: Eq. 7's
constant charges, a ``ReconfigurationModel``'s delays between the
actual circuit configurations (:func:`optimize_schedule_physical`), or
compute windows (:func:`repro.core.overlap.optimize_with_overlap`).

Eq. 7 is a table and not a constant-delay model because every model
charges 0 between equal configurations, while Eq. 7 charges ``alpha_r``
even between two identical consecutive matchings.  On the 288 DP cells
of the paper grid the constant-delay physical DP picks a different
schedule in 16 cells, all recursive doubling (panel a at the smallest
message and ``alpha_r`` = 100 ns: Eq. 7 ``MMMMMGGMMMMM``, physical
all-``M``), and a total off by more than 1e-12 relative in 72 more
(recursive doubling and Swing, whose middle step repeats).  The two
alltoall panels agree in every cell, to rounding.

The DP value provably equals the MILP optimum; the test suite
cross-validates against :mod:`repro.core.optimizer_ilp` and brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from ..fabric.reconfiguration import Configuration, ReconfigurationModel
from .cost_model import CostParameters, StepCost
from .schedule import (
    Decision,
    Schedule,
    ScheduleCost,
    evaluate_schedule,
    evaluate_schedule_physical,
    step_configuration,
)

__all__ = [
    "OptimizationResult",
    "optimize_schedule",
    "optimize_schedule_physical",
]


@dataclass(frozen=True)
class OptimizationResult:
    """An optimal schedule with its evaluated cost breakdown."""

    schedule: Schedule
    cost: ScheduleCost

    @property
    def total_time(self) -> float:
        """Collective completion time of the optimal schedule."""
        return self.cost.total


def _solve_two_state(
    step_costs: Sequence[StepCost],
    params: CostParameters,
    transitions: Sequence[tuple[float, float, float, float]],
) -> Schedule:
    """The cost-minimal schedule, in ``O(s)``.

    ``transitions[i]`` is ``(base->base, matched->base, base->matched,
    matched->matched)``: the cost of entering step ``i``'s state from
    step ``i-1``'s.  The fabric starts in the base configuration; ties
    prefer the base topology (fewer reconfigurations for equal time).
    """
    # Best cost so far ending in each state; parent pointers (0 = BASE,
    # 1 = MATCHED) rebuild the argmin path.
    base_value, matched_value = 0.0, math.inf
    parents: list[tuple[int, int]] = []
    for cost, (base_base, matched_base, base_matched, matched_matched) in zip(
        step_costs, transitions
    ):
        base_step = cost.base_cost(params)
        matched_step = cost.matched_cost(params)
        from_base = base_value + base_base + base_step
        from_matched = matched_value + matched_base + base_step
        if from_base <= from_matched:
            new_base, base_parent = from_base, 0
        else:
            new_base, base_parent = from_matched, 1
        from_base = base_value + base_matched + matched_step
        from_matched = matched_value + matched_matched + matched_step
        if from_base <= from_matched:
            new_matched, matched_parent = from_base, 0
        else:
            new_matched, matched_parent = from_matched, 1
        base_value, matched_value = new_base, new_matched
        parents.append((base_parent, matched_parent))

    state = 0 if base_value <= matched_value else 1
    decisions: list[Decision] = []
    for step_parents in reversed(parents):
        decisions.append(Decision.BASE if state == 0 else Decision.MATCHED)
        state = step_parents[state]
    return Schedule(tuple(reversed(decisions)))


def optimize_schedule(
    step_costs: Sequence[StepCost],
    params: CostParameters,
) -> OptimizationResult:
    """Solve Eq. 7 exactly in ``O(s)`` time.

    Returns the cost-minimal schedule; ties prefer the base topology
    (fewer reconfigurations for equal time).
    """
    n_steps = len(step_costs)
    if n_steps == 0:
        raise ValueError("at least one step is required")
    alpha_r = params.reconfiguration_delay
    # Only BASE -> BASE is free: a matched topology is specific to its
    # step, so entering one (even from an equal matching) and restoring
    # the standing topology are both reconfigurations.
    schedule = _solve_two_state(
        step_costs, params, [(0.0, alpha_r, alpha_r, alpha_r)] * n_steps
    )
    return OptimizationResult(
        schedule=schedule,
        cost=evaluate_schedule(step_costs, schedule, params),
    )


def optimize_schedule_physical(
    step_costs: Sequence[StepCost],
    params: CostParameters,
    model: ReconfigurationModel,
    base_configuration: Configuration,
    initial_configuration: Configuration | None = None,
    force_first: Decision | None = None,
) -> OptimizationResult:
    """Solve the schedule problem under *physical* reconfiguration
    accounting, still in ``O(s)``.

    The same two-state DP as :func:`optimize_schedule`, but ``model``
    prices each transition between the *actual* circuit configurations:
    staying in an identical matched configuration is free, per-port
    models charge by touched ports, and the fabric may start in a
    carried-over ``initial_configuration`` (a workload phase inheriting
    the previous phase's ending circuits).  Two states per step suffice
    because the configuration after step ``i`` is fully determined by
    decision ``i``.

    ``force_first`` pins the first step's decision (used by hysteresis
    policies to price "hold the standing configuration" separately from
    the unconstrained optimum).
    """
    if len(step_costs) == 0:
        raise ValueError("at least one step is required")
    # The configuration each state holds; None marks a state no schedule
    # is in (MATCHED before step 0, a first decision force_first rules
    # out), which costs inf to enter or leave and is never priced.
    held: list[Configuration | None] = [initial_configuration, None]
    if initial_configuration is None:
        held[0] = base_configuration
    transitions = []
    for index, cost in enumerate(step_costs):
        entered: list[Configuration | None] = [
            base_configuration,
            step_configuration(Decision.MATCHED, cost, base_configuration),
        ]
        if index == 0 and force_first is not None:
            entered[1 if force_first is Decision.BASE else 0] = None
        transitions.append(
            tuple(
                math.inf
                if previous is None or target is None
                else model.delay(previous, target)
                for target in entered
                for previous in held
            )
        )
        held = entered
    schedule = _solve_two_state(step_costs, params, transitions)
    return OptimizationResult(
        schedule=schedule,
        cost=evaluate_schedule_physical(
            step_costs,
            schedule,
            params,
            model,
            base_configuration,
            initial_configuration=initial_configuration,
        ),
    )
