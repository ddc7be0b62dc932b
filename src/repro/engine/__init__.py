"""repro.engine — the unified evaluation engine.

Every layer of the reproduction (planner solvers, the flow simulator,
the adaptive workload engine, the figure experiments) bottoms out in
the same expensive operation: evaluating the congestion factor
``theta(G, M)`` via the max-concurrent-flow LP.  The paper's vision of
fabrics that adapt per collective (§3, Eq. 7) demands sweeping far
larger grids than a single GIL-bound process can evaluate, so this
subsystem owns the whole evaluation path:

* **Throughput backends** (:mod:`~repro.engine.backends`) — a registry
  of theta estimators: ``exact-lp`` (certified ground truth),
  ``exact-lp-warm`` (the same solver, with seed paths kept across
  degraded-fabric families), ``closed-form`` (formula fast paths with
  LP fallback and a vectorized ``theta_many`` grid pass), and
  ``bounds`` (the cheap :class:`ThetaEnvelope` sandwich for coarse
  grid pre-screening before exact refinement).
* **Two-tier caching** (:mod:`~repro.engine.store` plus
  :class:`repro.flows.ThroughputCache`) — the in-process compute-once
  memo backed by a content-addressed on-disk :class:`DiskStore`
  (``REPRO_CACHE_DIR``, JSON lines, safe under concurrent writers), so
  repeated grid runs across processes and CI jobs pay zero LP solves
  after the first.
* **Execution backends** (:mod:`~repro.engine.parallel`) —
  ``parallel_backend="serial" | "thread" | "process"`` for the batch
  entry points; the process pool ships picklable scenario/workload
  dicts, shares theta values through the store, and merges per-worker
  cache deltas back, breaking the GIL ceiling on the pure-python
  schedule DP and LP assembly.

The batch entry points — :func:`plan_many`, :func:`sim_many`,
:func:`workload_many`, :func:`plan_workload_many` — are the canonical
implementations; :mod:`repro.planner` and :mod:`repro.sim` keep thin
compatibility shims with the same names.
"""

from .api import plan_many, plan_workload_many, sim_many, workload_many
from .backends import (
    BlockLPBackend,
    BoundsBackend,
    ClosedFormBackend,
    ExactLPBackend,
    ThetaEnvelope,
    ThroughputBackend,
    WarmStartLPBackend,
    available_throughput_backends,
    compute_theta_backend,
    compute_theta_backend_many,
    get_throughput_backend,
    register_throughput_backend,
    scenario_theta_method,
    theta_envelope,
    unregister_throughput_backend,
)
from .incremental import (
    PlanContext,
    compute_theta_delta,
    fabric_state_for,
    prewarm_scenario_context,
    prewarm_workload_context,
    scenario_lineage,
)
from .parallel import EXECUTION_BACKENDS, resolve_execution_backend
from .store import (
    ENV_CACHE_DIR,
    DiskStore,
    activate_disk_cache,
    resolve_cache_dir,
)

__all__ = [
    # batch entry points
    "plan_many",
    "sim_many",
    "workload_many",
    "plan_workload_many",
    # throughput backends
    "ThroughputBackend",
    "ExactLPBackend",
    "WarmStartLPBackend",
    "ClosedFormBackend",
    "BoundsBackend",
    "BlockLPBackend",
    "ThetaEnvelope",
    "register_throughput_backend",
    "unregister_throughput_backend",
    "available_throughput_backends",
    "get_throughput_backend",
    "compute_theta_backend",
    "compute_theta_backend_many",
    "theta_envelope",
    "scenario_theta_method",
    # incremental (delta-aware) pricing
    "PlanContext",
    "compute_theta_delta",
    "fabric_state_for",
    "scenario_lineage",
    "prewarm_scenario_context",
    "prewarm_workload_context",
    # caching
    "DiskStore",
    "activate_disk_cache",
    "resolve_cache_dir",
    "ENV_CACHE_DIR",
    # execution backends
    "EXECUTION_BACKENDS",
    "resolve_execution_backend",
]
