"""The degradation experiment grid: fabric conditions x solvers.

Where Figure 1 / Figure 2 sweep cost scalars over a *perfect* fabric,
this grid sweeps fabric *conditions* — a failed transceiver lane, a
dimmed generation of optics, a thermal hotspot, a dead WDM wavelength —
over the planner's solvers, on the paper's ring fabric.  Each cell
plans the same collective under one condition, executes the plan on the
flow simulator, and reports both completion times next to their
slowdown over the pristine fabric: the price of imperfection.  The
``avoid`` column prices *conservative* operation — new circuits are
kept off unhealthy ports, so it can only match or exceed ``dp``'s
unconstrained optimum; the gap between the two columns is the premium
that caution costs (zero in regimes where the optimum already stays on
the base fabric, as with the default high ``alpha_r``).

The whole grid is one engine batch (:func:`repro.engine.plan_many`)
and a loop of :func:`repro.sim.simulate_plan` over its plans, so it
inherits the shared two-tier theta cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..engine import plan_many
from ..exceptions import ConfigurationError
from ..fabric.degradation import (
    FabricHealth,
    hotspot,
    random_failures,
    uniform_degradation,
)
from ..flows import ThroughputCache, default_cache
from ..planner import PlanRequest, Scenario
from ..sim.executor import simulate_plan
from ..units import MiB, format_time, ns, us
from .config import PAPER_CONFIG, PaperConfig

__all__ = [
    "DegradationCell",
    "default_conditions",
    "degradation_base_scenario",
    "run_degradation_grid",
    "degradation_grid_report",
]

#: The solvers evaluated per condition: the exact DP and its
#: fault-avoiding variant (identical on the pristine row).
DEGRADATION_SOLVERS: tuple[str, ...] = ("dp", "avoid")


def _is_pristine(health: "FabricHealth | None") -> bool:
    """Whether a condition entry describes the fault-free fabric
    (``None`` and a pristine ``FabricHealth`` spell the same row)."""
    return health is None or health.is_pristine


def default_conditions(
    n: int, seed: int = 7
) -> tuple[tuple[str, "FabricHealth | None"], ...]:
    """The named fabric conditions of the default grid.

    Deterministic in ``(n, seed)`` — the golden fixture depends on it.
    """
    return (
        ("pristine", None),
        ("one-failure", random_failures(n, seed=seed, failures=1)),
        ("dimmed-fleet", uniform_degradation(n, 0.75)),
        ("hotspot", hotspot(n, center=0, radius=max(1, n // 8), severity=0.5)),
        (
            "lost-wavelength",
            FabricHealth(
                dead_wavelengths=1, total_wavelengths=4, name="lost-wavelength"
            ),
        ),
    )


def degradation_base_scenario(
    config: PaperConfig = PAPER_CONFIG,
    algorithm: str = "allreduce_ring",
    message_size: float = MiB(4),
    alpha: float = ns(100),
    alpha_r: float = us(1000),
) -> Scenario:
    """The base scenario every condition degrades: the paper's ring
    fabric with a reconfiguration delay high enough that the optimal
    schedule actually *uses* the (degradable) base topology."""
    return Scenario.create(
        algorithm,
        n=config.n,
        message_size=message_size,
        bandwidth=config.bandwidth,
        alpha=alpha,
        delta=config.delta,
        reconfiguration_delay=alpha_r,
        topology="ring",
        topology_options={"bidirectional": config.bidirectional_ring},
    )


@dataclass(frozen=True)
class DegradationCell:
    """One (condition, solver) cell of the degradation grid."""

    condition: str
    solver: str
    planned_time: float
    sim_time: float
    n_reconfigurations: int
    matched_steps: int
    planned_slowdown: float  # vs the pristine dp cell
    sim_slowdown: float

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON / CSV friendly)."""
        return {
            "condition": self.condition,
            "solver": self.solver,
            "planned_time": self.planned_time,
            "sim_time": self.sim_time,
            "n_reconfigurations": self.n_reconfigurations,
            "matched_steps": self.matched_steps,
            "planned_slowdown": self.planned_slowdown,
            "sim_slowdown": self.sim_slowdown,
        }


def run_degradation_grid(
    config: PaperConfig = PAPER_CONFIG,
    conditions: "Sequence[tuple[str, FabricHealth | None]] | None" = None,
    solvers: Sequence[str] = DEGRADATION_SOLVERS,
    base: "Scenario | None" = None,
    seed: int = 7,
    cache: "ThroughputCache | None" = default_cache,
) -> list[DegradationCell]:
    """Evaluate every (condition, solver) cell, planned *and* simulated.

    Returns cells in row-major (condition, solver) order.  The pristine
    ``dp`` cell (or, if ``dp`` is not among ``solvers``, the pristine
    cell of the first solver) anchors both slowdown columns — a
    pristine condition is always evaluated, even when none is listed in
    ``conditions``.  A slowdown above 1.0 means the condition costs
    that factor in completion time.  ``base`` overrides the default
    paper-fabric base scenario.
    """
    if base is None:
        base = degradation_base_scenario(config)
    if conditions is None:
        conditions = default_conditions(base.n, seed=seed)
    conditions = list(conditions)
    if not any(_is_pristine(health) for _, health in conditions):
        conditions.insert(0, ("pristine", None))
    solvers = tuple(solvers)
    if not solvers:
        raise ConfigurationError("the degradation grid needs at least one solver")
    anchor_solver = "dp" if "dp" in solvers else solvers[0]
    keys = [
        (name, solver) for name, _ in conditions for solver in solvers
    ]
    requests = [
        PlanRequest(
            scenario=base.replace(health=health, name=name), solver=solver
        )
        for name, health in conditions
        for solver in solvers
    ]
    plans = plan_many(requests, cache=cache)
    sims = [
        simulate_plan(result, cache=cache, collect_utilization=False)
        for result in plans
    ]
    anchor_name = next(
        name for name, health in conditions if _is_pristine(health)
    )
    anchor_index = keys.index((anchor_name, anchor_solver))
    anchor_plan, anchor_sim = plans[anchor_index], sims[anchor_index]
    return [
        DegradationCell(
            condition=name,
            solver=solver,
            planned_time=plan.total_time,
            sim_time=sim.sim_time,
            n_reconfigurations=plan.n_reconfigurations,
            matched_steps=plan.num_matched_steps,
            planned_slowdown=plan.total_time / anchor_plan.total_time,
            sim_slowdown=sim.sim_time / anchor_sim.sim_time,
        )
        for (name, solver), plan, sim in zip(keys, plans, sims)
    ]


def degradation_grid_report(cells: Sequence[DegradationCell]) -> str:
    """Human-readable table of a degradation grid run."""
    lines = [
        f"{'condition':>16} {'solver':>7} {'planned':>12} {'simulated':>12} "
        f"{'matched':>7} {'slowdown':>9}"
    ]
    for cell in cells:
        lines.append(
            f"{cell.condition:>16} {cell.solver:>7} "
            f"{format_time(cell.planned_time):>12} "
            f"{format_time(cell.sim_time):>12} "
            f"{cell.matched_steps:>7} "
            f"{cell.sim_slowdown:>8.2f}x"
        )
    return "\n".join(lines)
