"""The paper's core contribution: the alpha-beta-theta cost model and
reconfiguration-aware schedule optimization (paper §3).

The optimizer entry points below (``optimize_schedule``,
``optimize_schedule_ilp``, ``optimize_pool_schedule``,
``optimize_with_overlap``, ``threshold_schedule``,
``greedy_sequential_schedule``) are the solver *engines*.  New code
should usually go through the unified front door instead —
:func:`repro.planner.plan` with ``solver="dp" | "ilp" | "pool" |
"overlap" | "threshold" | "greedy"`` — which assembles the topology /
collective / step-cost plumbing from a declarative
:class:`~repro.planner.Scenario` and returns a normalized
:class:`~repro.planner.PlanResult`.  These functions remain supported
for callers that already hold ``StepCost`` sequences."""

from .baselines import best_of_both_cost, bvn_cost, static_cost
from .cost_model import CostParameters, StepCost, evaluate_step_costs
from .heuristics import greedy_sequential_schedule, threshold_schedule
from .optimizer_dp import (
    OptimizationResult,
    optimize_schedule,
    optimize_schedule_physical,
)
from .optimizer_ilp import optimize_schedule_ilp
from .multiport import (
    MultiPortStep,
    MultiPortStepCost,
    evaluate_multiport_step_costs,
    multiport_alltoall,
)
from .optimizer_pool import PoolDecision, PoolScheduleResult, optimize_pool_schedule
from .overlap import evaluate_schedule_with_overlap, optimize_with_overlap
from .schedule import (
    Decision,
    Schedule,
    ScheduleCost,
    evaluate_schedule,
    evaluate_schedule_physical,
    step_configuration,
)
from .tradeoff import crossover_to_static, static_bvn_breakeven

__all__ = [
    "CostParameters",
    "StepCost",
    "evaluate_step_costs",
    "Decision",
    "Schedule",
    "ScheduleCost",
    "evaluate_schedule",
    "evaluate_schedule_physical",
    "step_configuration",
    "static_cost",
    "bvn_cost",
    "best_of_both_cost",
    "OptimizationResult",
    "optimize_schedule",
    "optimize_schedule_physical",
    "optimize_schedule_ilp",
    "optimize_pool_schedule",
    "PoolDecision",
    "PoolScheduleResult",
    "threshold_schedule",
    "greedy_sequential_schedule",
    "MultiPortStep",
    "MultiPortStepCost",
    "multiport_alltoall",
    "evaluate_multiport_step_costs",
    "evaluate_schedule_with_overlap",
    "optimize_with_overlap",
    "static_bvn_breakeven",
    "crossover_to_static",
]
