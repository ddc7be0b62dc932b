"""repro — adaptive photonic scale-up domains.

A reproduction of "When Light Bends to the Collective Will: A Theory and
Vision for Adaptive Photonic Scale-up Domains" (HotNets 2025): the
BvN / maximum-concurrent-flow / alpha-beta cost model bridge, the
reconfigure-or-not schedule optimizer, and the flow-level evaluation
that produces the paper's Figure 1 and Figure 2.

Quickstart — describe the problem declaratively, then plan it::

    from repro import Scenario, plan, Gbps, MiB, ns, us

    scenario = Scenario.create(
        "allreduce_swing", n=64, message_size=MiB(64),
        bandwidth=Gbps(800), alpha=ns(100), delta=ns(100),
        reconfiguration_delay=us(10),
    )
    result = plan(scenario, solver="dp")   # or "ilp", "pool", ...
    print(result.schedule, result.total_time)

Batch a whole parameter sweep through the shared theta cache::

    from repro import plan_many, scenario_grid

    grid = scenario_grid(scenario, message_sizes=[MiB(1), MiB(64)],
                         alpha_rs=[us(1), us(100)])
    results = plan_many(grid, solver="dp")

The legacy imperative entry points (``optimize_schedule`` and friends)
remain available and are what the solver registry adapts.

Subpackages: :mod:`repro.topology`, :mod:`repro.collectives`,
:mod:`repro.flows`, :mod:`repro.bvn`, :mod:`repro.core`,
:mod:`repro.fabric`, :mod:`repro.planner`, :mod:`repro.sim`,
:mod:`repro.service`, :mod:`repro.analysis`, :mod:`repro.experiments`.
"""

from . import (
    analysis,
    bvn,
    collectives,
    core,
    engine,
    experiments,
    fabric,
    flows,
    planner,
    service,
    sim,
    topology,
    workload,
)
from ._version import detect_version as _detect_version
from .engine import (
    DiskStore,
    ThetaEnvelope,
    activate_disk_cache,
    plan_many,
    theta_envelope,
)
from .collectives import (
    Collective,
    PAPER_ALGORITHMS,
    Step,
    available_collectives,
    make_collective,
    verify_collective,
)
from .core import (
    CostParameters,
    Decision,
    OptimizationResult,
    Schedule,
    ScheduleCost,
    StepCost,
    best_of_both_cost,
    bvn_cost,
    classify_regime,
    evaluate_schedule,
    evaluate_step_costs,
    optimize_pool_schedule,
    optimize_schedule,
    optimize_schedule_ilp,
    static_cost,
)
from .exceptions import ReproError
from .fabric import (
    FabricHealth,
    FaultEvent,
    hotspot,
    random_failures,
    uniform_degradation,
)
from .flows import CacheStats, ThroughputCache, compute_theta, max_concurrent_flow
from .planner import (
    CollectiveSpec,
    PlanRequest,
    PlanResult,
    Scenario,
    TopologySpec,
    available_solvers,
    plan,
    register_solver,
    scenario_grid,
)
from .matching import Matching
from .service import (
    PlannerDaemon,
    ServiceClient,
    ServiceRequest,
    ServiceResponse,
)
from .sim import (
    FlowLevelSimulator,
    WorkloadSimResult,
    simulate,
    simulate_workload,
)
from .workload import (
    Workload,
    WorkloadPlan,
    bursty_trace,
    faulty,
    interleave,
    moe_trace,
    plan_workload,
    steady_trace,
    training_loop_trace,
)
from .topology import Topology, hypercube, ring, torus
from .units import GB, GiB, Gbps, KiB, MB, MiB, Tbps, ms, ns, us

#: Single-sourced from pyproject.toml — see :mod:`repro._version`.
__version__ = _detect_version()

__all__ = [
    "__version__",
    # subpackages
    "topology",
    "collectives",
    "flows",
    "bvn",
    "core",
    "engine",
    "fabric",
    "planner",
    "service",
    "sim",
    "workload",
    "analysis",
    "experiments",
    # planner-as-a-service
    "PlannerDaemon",
    "ServiceClient",
    "ServiceRequest",
    "ServiceResponse",
    # the unified evaluation engine
    "theta_envelope",
    "ThetaEnvelope",
    "DiskStore",
    "activate_disk_cache",
    # the unified planner API
    "Scenario",
    "TopologySpec",
    "CollectiveSpec",
    "PlanRequest",
    "PlanResult",
    "plan",
    "plan_many",
    "scenario_grid",
    "register_solver",
    "available_solvers",
    # fault & heterogeneity modeling
    "FabricHealth",
    "FaultEvent",
    "uniform_degradation",
    "random_failures",
    "hotspot",
    "faulty",
    # frequently used names
    "ReproError",
    "Matching",
    "Topology",
    "ring",
    "torus",
    "hypercube",
    "Collective",
    "Step",
    "make_collective",
    "available_collectives",
    "verify_collective",
    "PAPER_ALGORITHMS",
    "CostParameters",
    "StepCost",
    "evaluate_step_costs",
    "Schedule",
    "ScheduleCost",
    "Decision",
    "evaluate_schedule",
    "optimize_schedule",
    "optimize_schedule_ilp",
    "optimize_pool_schedule",
    "OptimizationResult",
    "static_cost",
    "bvn_cost",
    "best_of_both_cost",
    "classify_regime",
    "compute_theta",
    "max_concurrent_flow",
    "ThroughputCache",
    "CacheStats",
    "FlowLevelSimulator",
    "simulate",
    # the adaptive workload engine
    "Workload",
    "WorkloadPlan",
    "WorkloadSimResult",
    "plan_workload",
    "simulate_workload",
    "interleave",
    "steady_trace",
    "bursty_trace",
    "training_loop_trace",
    "moe_trace",
    # units
    "Gbps",
    "Tbps",
    "KiB",
    "MiB",
    "GiB",
    "MB",
    "GB",
    "ns",
    "us",
    "ms",
]
