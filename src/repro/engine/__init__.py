"""repro.engine — the unified evaluation engine.

Every layer of the reproduction (planner solvers, the flow simulator,
the adaptive workload engine, the figure experiments) bottoms out in
the same expensive operation: evaluating the congestion factor
``theta(G, M)`` via the max-concurrent-flow LP.  Theta depends only on
the fabric and the step patterns, so this subsystem owns the whole
evaluation path around one shared memo:

* **Theta envelopes** (:mod:`~repro.engine.envelope`) — the cheap
  :class:`ThetaEnvelope` sandwich for coarse grid pre-screening before
  exact refinement (exact theta itself has one route,
  :func:`repro.flows.compute_theta`).
* **Two-tier caching** (:mod:`~repro.engine.store` plus
  :class:`repro.flows.ThroughputCache`) — the in-process compute-once
  memo backed by a content-addressed on-disk :class:`DiskStore`
  (``REPRO_CACHE_DIR``, JSON lines, safe under concurrent writers), so
  repeated grid runs across processes and CI jobs pay zero LP solves
  after the first.  Separate processes sharing one store are how a
  grid uses more than one core.  (Pod subproblems are memoized below
  this layer, by content, in :mod:`repro.flows.block`; no pricing state
  is carried between calls.)

The batch entry point is :func:`plan_many`: one serial loop of
:func:`repro.planner.plan`, in input order.  Simulations and workloads
batch as plain loops of their scalar functions over one cache.
"""

from .api import plan_many
from .envelope import ThetaEnvelope, theta_envelope
from .store import (
    ENV_CACHE_DIR,
    DiskStore,
    activate_disk_cache,
    resolve_cache_dir,
)

__all__ = [
    # batch entry point
    "plan_many",
    # theta envelopes
    "ThetaEnvelope",
    "theta_envelope",
    # caching
    "DiskStore",
    "activate_disk_cache",
    "resolve_cache_dir",
    "ENV_CACHE_DIR",
]
