"""Adaptive workloads: stateful planning of time-varying traffic.

The paper's single-collective framework answers "reconfigure or not,
per step?"; this layer asks the question the research agenda (§4)
actually poses — how should a photonic domain serve a *stream* of
collectives when the fabric configuration it ends one phase in is the
configuration the next phase inherits?

* :class:`Workload` — an ordered sequence of declarative
  :class:`~repro.planner.Scenario` phases over one shared fabric, with
  :func:`interleave` for multi-tenant round-robin traffic;
* :mod:`~repro.workload.traces` — deterministic synthetic generators
  (steady, bursty, phase-shifted training loops, MoE) plus seeded
  stochastic ones (Poisson multi-tenant arrivals, drifting-MoE expert
  popularity, piecewise-stationary demand);
* :func:`plan_workload` — plan the stream with an online policy
  (``replan``, ``hysteresis``, ``oracle``, or a registered custom one)
  under a pluggable reconfiguration-delay model, threading carried
  circuit state across phase boundaries;
* :class:`WorkloadPlan` / :class:`PhasePlan` — the normalized,
  dict-round-trippable results.

Execution lives in :mod:`repro.sim`: :func:`repro.sim.simulate_workload`
replays a plan on the flow-level simulator and
:func:`repro.engine.workload_many` batches whole workload sweeps.

Quickstart::

    from repro.workload import plan_workload, training_loop_trace
    from repro.planner import Scenario
    from repro.units import Gbps, MiB, ns, us

    base = Scenario.create(
        "allreduce_recursive_doubling", n=16, message_size=MiB(8),
        bandwidth=Gbps(800), alpha=ns(100), delta=ns(100),
        reconfiguration_delay=us(10),
    )
    workload = training_loop_trace(base, iterations=3)
    plan = plan_workload(workload, policy="hysteresis")
    print(plan.total_time, plan.per_phase_times)
"""

from .policies import (
    PolicyContext,
    PolicyFn,
    available_policies,
    get_policy,
    plan_workload,
    register_policy,
    unregister_policy,
)
from .result import PhasePlan, WorkloadPlan
from .spec import Workload, interleave
from .traces import (
    DEFAULT_TENANT_PALETTE,
    DEFAULT_TRAINING_CYCLE,
    bursty_trace,
    drifting_moe_trace,
    faulty,
    moe_trace,
    piecewise_stationary_trace,
    poisson_arrivals,
    poisson_multitenant_trace,
    steady_trace,
    training_loop_trace,
)

__all__ = [
    "Workload",
    "interleave",
    "PhasePlan",
    "WorkloadPlan",
    "PolicyContext",
    "PolicyFn",
    "plan_workload",
    "register_policy",
    "unregister_policy",
    "available_policies",
    "get_policy",
    "steady_trace",
    "bursty_trace",
    "training_loop_trace",
    "moe_trace",
    "faulty",
    "poisson_arrivals",
    "poisson_multitenant_trace",
    "drifting_moe_trace",
    "piecewise_stationary_trace",
    "DEFAULT_TRAINING_CYCLE",
    "DEFAULT_TENANT_PALETTE",
]
