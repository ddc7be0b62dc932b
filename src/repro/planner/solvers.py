"""Built-in solver adapters.

Each adapter wraps one legacy optimizer entry point behind the uniform
``(PlanRequest, cache) -> PlanResult`` signature and is registered at
import time:

========== ==========================================================
name       wraps
========== ==========================================================
dp         :func:`repro.core.optimize_schedule` (exact, O(s))
ilp        :func:`repro.core.optimize_schedule_ilp` (HiGHS MILP)
pool       :func:`repro.core.optimize_pool_schedule` (multi-config DP)
overlap    :func:`repro.core.overlap.optimize_with_overlap`
threshold  :func:`repro.core.heuristics.threshold_schedule`
greedy     :func:`repro.core.heuristics.greedy_sequential_schedule`
static     never reconfigure (baseline policy)
bvn        reconfigure every step (baseline policy)
avoid      the exact DP, but matched steps touching unhealthy ports
           (failed transceiver lanes, ports dimmed below
           ``min_health``) are forbidden — plan *around* the faults
========== ==========================================================

The adapters are bit-faithful: for a given scenario they feed the
legacy function exactly the step costs / parameters the caller would
have assembled by hand, so schedules and totals are identical.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from ..core.heuristics import greedy_sequential_schedule, threshold_schedule
from ..core.optimizer_dp import optimize_schedule
from ..core.optimizer_ilp import optimize_schedule_ilp
from ..core.optimizer_pool import optimize_pool_schedule
from ..core.overlap import optimize_with_overlap
from ..core.schedule import Schedule, evaluate_schedule
from ..exceptions import ConfigurationError
from ..flows import ThroughputCache
from .registry import register_solver
from .result import PlanRequest, PlanResult
from .scenario import TopologySpec

__all__ = ["register_builtin_solvers"]


def _options(request: PlanRequest, allowed: Sequence[str]) -> dict[str, object]:
    """Solver options as a dict, rejecting anything the solver ignores."""
    options = request.options_dict
    unknown = set(options) - set(allowed)
    if unknown:
        raise ConfigurationError(
            f"solver {request.solver!r} does not accept options "
            f"{sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return options


def _solve_dp(request: PlanRequest, cache: ThroughputCache | None) -> PlanResult:
    _options(request, ())
    scenario = request.scenario
    result = optimize_schedule(scenario.step_costs(cache=cache), scenario.cost)
    return PlanResult.from_schedule(
        request, result.schedule, result.cost, solver=request.solver
    )


def _solve_avoid(
    request: PlanRequest, cache: ThroughputCache | None
) -> PlanResult:
    """The exact DP with matched steps on unhealthy ports forbidden.

    A conservative operator does not schedule *new* circuits through
    flaky hardware: for every step whose matching terminates at an
    unhealthy rank (an endpoint of a failed transceiver lane, or a port
    dimmed below ``min_health``, default 1.0 = any dimming), the
    matched option is priced at infinity and the DP routes the step
    over the base fabric instead.  On a pristine scenario this solver
    is identical to ``dp``.
    """
    options = _options(request, ("min_health",))
    min_health = float(options.get("min_health", 1.0))
    if not 0.0 < min_health <= 1.0:
        raise ConfigurationError(
            f"min_health must be in (0, 1], got {min_health}"
        )
    scenario = request.scenario
    step_costs = scenario.step_costs(cache=cache)
    if scenario.health is not None:
        unhealthy = scenario.health.unhealthy_ranks(min_health=min_health)
        step_costs = tuple(
            dataclasses.replace(cost, matched_rate_multiplier=0.0)
            if cost.matching is not None
            and any(
                src in unhealthy or dst in unhealthy
                for src, dst in cost.matching
            )
            else cost
            for cost in step_costs
        )
    result = optimize_schedule(step_costs, scenario.cost)
    return PlanResult.from_schedule(
        request,
        result.schedule,
        result.cost,
        solver=request.solver,
        metadata={"min_health": min_health},
    )


def _solve_ilp(request: PlanRequest, cache: ThroughputCache | None) -> PlanResult:
    _options(request, ())
    scenario = request.scenario
    result = optimize_schedule_ilp(scenario.step_costs(cache=cache), scenario.cost)
    return PlanResult.from_schedule(
        request, result.schedule, result.cost, solver=request.solver
    )


def _solve_overlap(
    request: PlanRequest, cache: ThroughputCache | None
) -> PlanResult:
    options = _options(request, ("compute_times",))
    compute_times = options.get("compute_times", 0.0)
    if isinstance(compute_times, tuple):
        compute_times = list(compute_times)
    scenario = request.scenario
    result = optimize_with_overlap(
        scenario.step_costs(cache=cache), scenario.cost, compute_times
    )
    return PlanResult.from_schedule(
        request,
        result.schedule,
        result.cost,
        solver=request.solver,
        metadata={"compute_times": compute_times},
    )


def _fixed_policy(policy: str):
    """Evaluate a fixed schedule policy (the paper's two pure baselines)."""

    def solve(request: PlanRequest, cache: ThroughputCache | None) -> PlanResult:
        _options(request, ())
        scenario = request.scenario
        step_costs = scenario.step_costs(cache=cache)
        if policy == "static":
            schedule = Schedule.static(len(step_costs))
        else:
            schedule = Schedule.always_reconfigure(len(step_costs))
        cost = evaluate_schedule(step_costs, schedule, scenario.cost)
        return PlanResult.from_schedule(request, schedule, cost, solver=request.solver)

    return solve


def _heuristic(rule) -> object:
    """Wrap a heuristic (schedule rule) + exact Eq. 7 evaluation."""

    def solve(request: PlanRequest, cache: ThroughputCache | None) -> PlanResult:
        _options(request, ())
        scenario = request.scenario
        step_costs = scenario.step_costs(cache=cache)
        schedule = rule(step_costs, scenario.cost)
        cost = evaluate_schedule(step_costs, schedule, scenario.cost)
        return PlanResult.from_schedule(request, schedule, cost, solver=request.solver)

    return solve


def _resolve_pool(
    request: PlanRequest, entries: object
) -> list[TopologySpec]:
    if entries is None:
        return [request.scenario.topology]
    specs = []
    for entry in entries:  # type: ignore[union-attr]
        if isinstance(entry, TopologySpec):
            specs.append(entry)
        elif isinstance(entry, Mapping):
            specs.append(TopologySpec.from_dict(entry))
        else:
            raise ConfigurationError(
                "pool entries must be TopologySpec or dicts, got "
                f"{type(entry).__name__}"
            )
    return specs


def _solve_pool(request: PlanRequest, cache: ThroughputCache | None) -> PlanResult:
    options = _options(
        request, ("pool", "initial_pool_index", "reconfiguration_model")
    )
    scenario = request.scenario
    if scenario.multiport_radix is not None:
        raise ConfigurationError(
            "the pool solver supports single-port scenarios only "
            "(multiport_radix must be None)"
        )
    if scenario.health is not None:
        # The pool DP prices candidate standing topologies built from
        # their pristine specs; silently ignoring the fabric condition
        # would report pristine numbers for a degraded fabric.
        raise ConfigurationError(
            "the pool solver does not support degraded fabrics yet "
            "(Scenario.health must be None)"
        )
    pool_specs = _resolve_pool(request, options.get("pool"))
    pool = [spec.build() for spec in pool_specs]
    for spec in pool_specs:
        if spec.n != scenario.topology.n:
            raise ConfigurationError(
                f"pool topology {spec.family!r} has n={spec.n}, "
                f"scenario has n={scenario.topology.n}"
            )
    result = optimize_pool_schedule(
        scenario.build_collective(),
        pool,
        scenario.cost,
        reconfiguration_model=options.get("reconfiguration_model"),
        theta_method=scenario.theta_method,
        path_rule=scenario.path_rule,
        cache=cache,
        initial_pool_index=int(options.get("initial_pool_index", 0)),
    )
    labels = tuple(
        "matched" if d.is_matched else f"pool:{d.index}" for d in result.decisions
    )
    return PlanResult(
        request=request,
        schedule=None,
        decisions=labels,
        total_time=result.total,
        cost=None,
        n_reconfigurations=result.n_reconfigurations,
        solver=request.solver,
        metadata=(
            ("per_step", result.per_step),
            ("pool_decisions", tuple(d.index for d in result.decisions)),
            ("pool_size", len(pool)),
            ("reconfiguration_time", result.reconfiguration_time),
        ),
    )


def register_builtin_solvers(overwrite: bool = False) -> None:
    """Install the built-in solver set into the registry."""
    register_solver("dp", _solve_dp, overwrite=overwrite)
    register_solver("avoid", _solve_avoid, overwrite=overwrite)
    register_solver("ilp", _solve_ilp, overwrite=overwrite)
    register_solver("pool", _solve_pool, overwrite=overwrite)
    register_solver("overlap", _solve_overlap, overwrite=overwrite)
    register_solver("threshold", _heuristic(threshold_schedule), overwrite=overwrite)
    register_solver("greedy", _heuristic(greedy_sequential_schedule), overwrite=overwrite)
    register_solver("static", _fixed_policy("static"), overwrite=overwrite)
    register_solver("bvn", _fixed_policy("bvn"), overwrite=overwrite)


register_builtin_solvers()
