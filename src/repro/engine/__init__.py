"""repro.engine — the unified evaluation engine.

Every layer of the reproduction (planner solvers, the flow simulator,
the adaptive workload engine, the figure experiments) bottoms out in
the same expensive operation: evaluating the congestion factor
``theta(G, M)`` via the max-concurrent-flow LP.  The paper's vision of
fabrics that adapt per collective (§3, Eq. 7) demands sweeping far
larger grids than a single GIL-bound process can evaluate, so this
subsystem owns the whole evaluation path:

* **Theta envelopes** (:mod:`~repro.engine.envelope`) — the cheap
  :class:`ThetaEnvelope` sandwich for coarse grid pre-screening before
  exact refinement (exact theta itself has one route,
  :func:`repro.flows.compute_theta`).
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

The batch entry points are :func:`plan_many`, :func:`sim_many`,
:func:`workload_many` and :func:`plan_workload_many`.
"""

from .api import plan_many, plan_workload_many, sim_many, workload_many
from .envelope import ThetaEnvelope, theta_envelope
from .incremental import (
    PlanContext,
    compute_theta_delta,
    delta_priced,
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
    # theta envelopes
    "ThetaEnvelope",
    "theta_envelope",
    # incremental (delta-aware) pricing
    "PlanContext",
    "compute_theta_delta",
    "delta_priced",
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
