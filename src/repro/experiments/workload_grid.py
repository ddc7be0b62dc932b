"""The workload experiment grid: traces x policies on the paper fabric.

Where Figure 1 / Figure 2 sweep a *single* collective over scalar axes,
this grid sweeps the synthetic traffic traces of
:mod:`repro.workload.traces` over the online planning policies, on the
same n-rank bidirectional ring the paper evaluates.  Each cell plans a
whole multi-phase workload and reports its end-to-end physically
accounted time plus its speedup over the memoryless ``replan``
baseline — the adaptive-domain analogue of the paper's speedup
heatmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from ..analysis.adaptivity import DEFAULT_POLICIES
from ..engine import activate_disk_cache
from ..exceptions import ConfigurationError
from ..fabric.reconfiguration import ReconfigurationModel
from ..flows import ThroughputCache, default_cache
from ..planner import Scenario
from ..units import MiB, format_time, ns
from ..workload.policies import plan_workload
from ..workload.spec import Workload
from ..workload.traces import (
    bursty_trace,
    drifting_moe_trace,
    moe_trace,
    piecewise_stationary_trace,
    poisson_multitenant_trace,
    steady_trace,
    training_loop_trace,
)
from .config import PAPER_CONFIG, PaperConfig

__all__ = [
    "WorkloadCell",
    "WORKLOAD_TRACES",
    "GRID_TRACE_SEED",
    "available_traces",
    "build_trace",
    "workload_base_scenario",
    "run_workload_grid",
    "workload_grid_report",
]

#: Seed for the stochastic trace builders below.  Fixed so every grid
#: cell (and every golden fixture derived from one) sees the same
#: realized trace; vary it by calling the generators directly.
GRID_TRACE_SEED = 20250425

#: Named trace builders: (base scenario, phase budget) -> Workload.
#: Phase budgets are approximate for the structured traces (a training
#: iteration is three phases, an MoE layer two).
WORKLOAD_TRACES: dict[str, Callable[[Scenario, int], Workload]] = {
    "steady": lambda base, phases: steady_trace(base, phases),
    "bursty": lambda base, phases: bursty_trace(base, phases),
    "training": lambda base, phases: training_loop_trace(
        base, max(1, phases // 3)
    ),
    "moe": lambda base, phases: moe_trace(base, max(1, phases // 2)),
    "poisson": lambda base, phases: poisson_multitenant_trace(
        base, phases, seed=GRID_TRACE_SEED
    ),
    "drifting-moe": lambda base, phases: drifting_moe_trace(
        base, max(1, phases // 2), seed=GRID_TRACE_SEED
    ),
    "piecewise": lambda base, phases: piecewise_stationary_trace(
        base, max(1, phases // 3), 3, seed=GRID_TRACE_SEED
    ),
}


def available_traces() -> tuple[str, ...]:
    """Sorted names of the built-in synthetic traces."""
    return tuple(sorted(WORKLOAD_TRACES))


def build_trace(name: str, base: Scenario, phases: int) -> Workload:
    """Expand a named trace around a base scenario."""
    builder = WORKLOAD_TRACES.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown trace {name!r}; available: {available_traces()}"
        )
    return builder(base, phases)


def workload_base_scenario(
    config: PaperConfig = PAPER_CONFIG,
    algorithm: str = "allreduce_recursive_doubling",
    message_size: float = MiB(64),
    alpha: float = ns(100),
) -> Scenario:
    """The base scenario the workload traces expand: the paper's ring
    fabric and cost scalars with one collective and message size."""
    return Scenario.create(
        algorithm,
        n=config.n,
        message_size=message_size,
        bandwidth=config.bandwidth,
        alpha=alpha,
        delta=config.delta,
        reconfiguration_delay=config.alpha_rs[2],
        topology="ring",
        topology_options={"bidirectional": config.bidirectional_ring},
    )


@dataclass(frozen=True)
class WorkloadCell:
    """One (trace, policy) cell of the workload grid."""

    trace: str
    policy: str
    num_phases: int
    total_time: float
    reconfiguration_time: float
    n_reconfigurations: int
    speedup_vs_replan: float
    per_phase_times: tuple[float, ...]

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON / CSV friendly)."""
        return {
            "trace": self.trace,
            "policy": self.policy,
            "num_phases": self.num_phases,
            "total_time": self.total_time,
            "reconfiguration_time": self.reconfiguration_time,
            "n_reconfigurations": self.n_reconfigurations,
            "speedup_vs_replan": self.speedup_vs_replan,
            "per_phase_times": list(self.per_phase_times),
        }


def run_workload_grid(
    config: PaperConfig = PAPER_CONFIG,
    traces: Sequence[str] = ("steady", "bursty", "training", "moe"),
    policies: Sequence[str] = DEFAULT_POLICIES,
    phases: int = 8,
    message_size: float = MiB(64),
    reconfiguration_model: ReconfigurationModel | None = None,
    solver: str = "dp",
    threshold: float = 0.0,
    base: "Scenario | None" = None,
    cache: "ThroughputCache | None" = default_cache,
) -> list[WorkloadCell]:
    """Evaluate every (trace, policy) cell.

    Returns cells in row-major (trace, policy) order.  ``replan`` is
    always planned (it anchors the speedup column) even when not listed
    in ``policies``; ``threshold`` reaches the ``hysteresis`` policy.
    ``base`` overrides the default paper-fabric base scenario (then
    ``config`` / ``message_size`` are not consulted; the traces
    override the collective per phase as usual).

    The whole grid is one loop of :func:`repro.workload.plan_workload`
    over ``cache``; the default cache gains the ``REPRO_CACHE_DIR`` disk
    tier first, as in :func:`repro.engine.plan_many`.
    """
    if base is None:
        base = workload_base_scenario(config, message_size=message_size)
    if cache is default_cache:
        activate_disk_cache(cache=cache)
    evaluated = tuple(dict.fromkeys(("replan",) + tuple(policies)))
    workloads = {name: build_trace(name, base, phases) for name in traces}
    by_cell = {
        (trace_name, policy): plan_workload(
            workloads[trace_name],
            policy=policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **({"threshold": threshold} if policy == "hysteresis" else {}),
        )
        for trace_name in traces
        for policy in evaluated
    }
    cells: list[WorkloadCell] = []
    for trace_name in traces:
        anchor = by_cell[(trace_name, "replan")].total_time
        for policy in policies:
            plan = by_cell[(trace_name, policy)]
            cells.append(
                WorkloadCell(
                    trace=trace_name,
                    policy=policy,
                    num_phases=plan.num_phases,
                    total_time=plan.total_time,
                    reconfiguration_time=plan.reconfiguration_time,
                    n_reconfigurations=plan.n_reconfigurations,
                    speedup_vs_replan=(
                        float("inf")
                        if plan.total_time == 0
                        else anchor / plan.total_time
                    ),
                    per_phase_times=plan.per_phase_times,
                )
            )
    return cells


def workload_grid_report(cells: Sequence[WorkloadCell]) -> str:
    """Human-readable table of a workload grid run."""
    lines = [
        f"{'trace':>10} {'policy':>12} {'phases':>6} {'total':>12} "
        f"{'reconf':>12} {'vs replan':>10}"
    ]
    for cell in cells:
        lines.append(
            f"{cell.trace:>10} {cell.policy:>12} {cell.num_phases:>6} "
            f"{format_time(cell.total_time):>12} "
            f"{format_time(cell.reconfiguration_time):>12} "
            f"{cell.speedup_vs_replan:>9.2f}x"
        )
    return "\n".join(lines)
