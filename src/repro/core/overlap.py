"""Overlapping reconfiguration with computation (research agenda §4).

Many collectives interleave communication with local compute (e.g. the
reduction arithmetic after each AllReduce exchange).  While GPUs
compute after step ``i``, the fabric can already reconfigure for step
``i+1``; only the part of ``alpha_r`` that exceeds the compute window
remains on the critical path:

    gap_i = max(compute_{i-1}, alpha_r * [reconfigures at i])

(for the serial model without overlap the gap is the sum instead of the
max).  The DP is :mod:`repro.core.optimizer_dp`'s two-state recurrence;
only the transition table differs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from numbers import Real

from ..exceptions import ScheduleError
from .cost_model import CostParameters, StepCost
from .optimizer_dp import OptimizationResult, _solve_two_state
from .schedule import Decision, Schedule, ScheduleCost

__all__ = ["evaluate_schedule_with_overlap", "optimize_with_overlap"]


def _resolve_compute_times(
    step_costs: Sequence[StepCost],
    compute_times: Sequence[float] | float,
) -> list[float]:
    """One finite, non-negative compute time per step, given as one
    number for every step or a sequence of one per step."""
    many = isinstance(compute_times, Iterable) and not isinstance(
        compute_times, (str, bytes, Mapping)
    )
    values = list(compute_times) if many else [compute_times] * len(step_costs)
    if len(values) != len(step_costs):
        raise ScheduleError(
            f"need one compute time per step ({len(step_costs)}), "
            f"got {len(values)}"
        )
    # float and int go first: the Real ABC check alone is slow.
    if not all(
        isinstance(t, (float, int, Real))
        and not isinstance(t, bool)
        and math.isfinite(t)
        and t >= 0
        for t in values
    ):
        raise ScheduleError(
            f"compute times must be finite non-negative numbers, got {compute_times!r}"
        )
    return [float(t) for t in values]


def evaluate_schedule_with_overlap(
    step_costs: Sequence[StepCost],
    schedule: Schedule,
    params: CostParameters,
    compute_times: Sequence[float] | float,
    overlap: bool = True,
) -> ScheduleCost:
    """Total time of a schedule when steps are followed by compute.

    ``compute_times[i]`` is the computation after step ``i``'s
    communication.  With ``overlap=True`` reconfigurations hide behind
    the preceding compute window; with ``overlap=False`` they serialize
    (the pessimistic baseline).
    """
    times = _resolve_compute_times(step_costs, compute_times)
    if schedule.num_steps != len(step_costs):
        raise ScheduleError("schedule length does not match step costs")
    alpha_r = params.reconfiguration_delay
    total = 0.0
    latency = propagation = bandwidth = reconfiguration = 0.0
    n_reconf = 0
    per_step = []
    previous = Decision.BASE
    for i, (cost, decision) in enumerate(zip(step_costs, schedule.decisions)):
        reconfigures = not (previous is Decision.BASE and decision is Decision.BASE)
        compute_window = times[i - 1] if i > 0 else 0.0
        if overlap:
            gap = max(compute_window, alpha_r if reconfigures else 0.0)
            reconf_exposed = max(0.0, (alpha_r if reconfigures else 0.0) - compute_window)
        else:
            gap = compute_window + (alpha_r if reconfigures else 0.0)
            reconf_exposed = alpha_r if reconfigures else 0.0
        if reconfigures:
            n_reconf += 1
            reconfiguration += reconf_exposed
        if decision is Decision.BASE:
            step_time = cost.base_cost(params)
            hops_used = cost.hops
        else:
            step_time = cost.matched_cost(params)
            hops_used = 1.0
        latency += params.alpha
        if math.isinf(step_time):
            propagation = math.inf
        else:
            propagation += params.delta * hops_used
            bandwidth += step_time - params.alpha - params.delta * hops_used
        total += gap + step_time
        per_step.append(step_time)
        previous = decision
    total += times[-1]  # trailing compute of the final step
    return ScheduleCost(
        total=total,
        latency_term=latency,
        propagation_term=propagation,
        bandwidth_term=bandwidth,
        reconfiguration_term=reconfiguration,
        n_reconfigurations=n_reconf,
        per_step=tuple(per_step),
    )


def optimize_with_overlap(
    step_costs: Sequence[StepCost],
    params: CostParameters,
    compute_times: Sequence[float] | float,
) -> OptimizationResult:
    """DP-optimal schedule when reconfigurations overlap computation.

    Identical state space to :func:`repro.core.optimize_schedule`; the
    transition into step ``i`` costs ``max(compute_{i-1}, alpha_r)``
    when reconfiguring and ``compute_{i-1}`` when not.
    """
    times = _resolve_compute_times(step_costs, compute_times)
    alpha_r = params.reconfiguration_delay
    transitions = []
    for window in [0.0] + times[:-1]:
        gap = max(window, alpha_r)
        transitions.append((window, gap, gap, gap))
    schedule = _solve_two_state(step_costs, params, transitions)
    return OptimizationResult(
        schedule=schedule,
        cost=evaluate_schedule_with_overlap(
            step_costs, schedule, params, times, overlap=True
        ),
    )
