"""The unified planning API — the library's front door.

The paper's contribution is a single decision: reconfigure the photonic
fabric or not, per collective step.  This subpackage exposes that
decision through one declarative surface:

* :class:`Scenario` — a frozen, dict-round-trippable description of a
  planning problem (topology + collective + cost scalars + knobs);
* :func:`plan` — solve one scenario with any registered solver
  (:func:`repro.engine.plan_many` solves a batch);
* :func:`register_solver` / :func:`available_solvers` — the engine
  registry (built-ins: ``dp``, ``ilp``, ``pool``, ``overlap``,
  ``threshold``, ``greedy``, plus the ``static`` / ``bvn`` baselines).

Quickstart::

    from repro.planner import Scenario, plan
    from repro.units import Gbps, MiB, ns, us

    scenario = Scenario.create(
        "allreduce_swing", n=64, message_size=MiB(64),
        bandwidth=Gbps(800), alpha=ns(100), delta=ns(100),
        reconfiguration_delay=us(10),
    )
    result = plan(scenario, solver="dp")
    print(result.schedule, result.total_time)
"""

from .registry import (
    SolverFn,
    available_solvers,
    get_solver,
    plan,
    register_solver,
    unregister_solver,
)
from .result import PlanRequest, PlanResult
from .scenario import (
    CollectiveSpec,
    Scenario,
    TopologySpec,
    available_topology_families,
    scenario_grid,
)
from . import solvers as _builtin_solvers  # noqa: F401  (registers built-ins)

__all__ = [
    "Scenario",
    "TopologySpec",
    "CollectiveSpec",
    "available_topology_families",
    "scenario_grid",
    "PlanRequest",
    "PlanResult",
    "SolverFn",
    "plan",
    "register_solver",
    "unregister_solver",
    "available_solvers",
    "get_solver",
]
