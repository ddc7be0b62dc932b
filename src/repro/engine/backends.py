"""Pluggable throughput backends.

Every layer of the reproduction — planner solvers, the flow simulator,
the workload engine — bottoms out in "what is theta(G, M)?".  This
module names the ways of answering as *backends* behind one registry:

========== ===========================================================
name       answers with
========== ===========================================================
exact-lp   the certified maximum concurrent flow
           (:func:`repro.flows.max_concurrent_flow`, path column
           generation over HiGHS) — ground truth.
exact-lp-warm the same solver through the shared
           :class:`~repro.flows.WarmStartLPSolver`, which keeps each
           family member's seed paths, so degraded fabrics re-solve
           without searching for them again.  Identical values to
           ``exact-lp``.
closed-form the exact closed forms of :mod:`repro.flows.closed_forms`
           when the (topology, pattern) pair has one (uniform shifts
           on rings, XOR exchanges on hypercubes, dedicated matched
           circuits), falling back to the LP otherwise.  Same values
           as ``exact-lp`` (the test suite pins agreement at 1e-9),
           orders of magnitude cheaper where a formula applies.
           ``theta_many`` prices whole grids in one vectorized pass
           (:func:`repro.flows.theta_batch`).
bounds     the cheap sandwich from :mod:`repro.flows.bounds` — the
           shortest-path feasible lower bound and the degree/flow-hop
           proxy upper bound — as a :class:`ThetaEnvelope`.  For
           coarse pre-screening of large grids before exact
           refinement; ``theta()`` returns the optimistic upper edge.
block-lp   the exact blockwise decomposition for pod fabrics
           (:func:`repro.flows.pod_theta`): one small LP per distinct
           pod subproblem plus a coarse inter-pod LP, screened by the
           bounds sandwich.  Equal to ``exact-lp`` at 1e-9 on
           pod-structured topologies (the n=128 golden fixture pins
           it) and falls back to the flat LP on others; the theta
           route that breaks the n=256 scale ceiling.
========== ===========================================================

Backends share the two-tier :class:`~repro.flows.ThroughputCache`
(values are tagged per estimator, so the content-addressed disk store
never conflates an envelope edge with an exact value).  Downstream code
registers custom estimators with :func:`register_throughput_backend`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from collections.abc import Sequence

from ..exceptions import ConfigurationError, FlowError
from ..flows import ThroughputCache, compute_theta, default_cache, theta_batch
from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "ThetaEnvelope",
    "ThroughputBackend",
    "ExactLPBackend",
    "WarmStartLPBackend",
    "ClosedFormBackend",
    "BoundsBackend",
    "BlockLPBackend",
    "register_throughput_backend",
    "unregister_throughput_backend",
    "available_throughput_backends",
    "get_throughput_backend",
    "compute_theta_backend",
    "compute_theta_backend_many",
    "theta_envelope",
    "scenario_theta_method",
]


@dataclass(frozen=True)
class ThetaEnvelope:
    """A cheap ``lower <= theta <= upper`` sandwich for one pattern."""

    lower: float
    upper: float

    @property
    def width(self) -> float:
        """Absolute gap between the edges (``0.0`` when both infinite)."""
        if math.isinf(self.upper) and math.isinf(self.lower):
            return 0.0
        return self.upper - self.lower

    def brackets(self, value: float, rel_tol: float = 1e-9) -> bool:
        """Whether ``value`` lies inside the envelope (with float slack)."""
        if math.isinf(value):
            return math.isinf(self.upper)
        slack_low = self.lower - rel_tol * max(abs(self.lower), 1.0)
        slack_high = self.upper + rel_tol * max(abs(self.upper), 1.0)
        return slack_low <= value <= slack_high


class ThroughputBackend:
    """Base class: one way of evaluating ``theta(G, M)``.

    Attributes
    ----------
    name:
        Registry name.
    scenario_method:
        The :class:`~repro.planner.Scenario` ``theta_method`` this
        backend corresponds to, or ``None`` when the backend has no
        scalar scenario routing (the envelope).
    """

    name: str = ""
    scenario_method: str | None = None

    def theta(
        self,
        topology: Topology,
        matching: Matching,
        reference_rate: float | None = None,
        cache: ThroughputCache | None = default_cache,
    ) -> float:
        raise NotImplementedError  # pragma: no cover

    def theta_many(
        self,
        topologies: "Topology | Sequence[Topology]",
        matchings: Sequence[Matching],
        reference_rate: "float | Sequence[float] | None" = None,
        cache: ThroughputCache | None = default_cache,
    ) -> list[float]:
        """Evaluate a whole grid of rows; override for batch kernels.

        The base implementation is the scalar loop; backends with a
        vectorized path (the closed forms) override it.  ``topologies``
        may be one topology shared by every row.
        """
        if isinstance(topologies, Topology):
            topologies = [topologies] * len(matchings)
        if reference_rate is None or isinstance(reference_rate, (int, float)):
            rates = [reference_rate] * len(matchings)
        else:
            rates = list(reference_rate)
        return [
            self.theta(topology, matching, rate, cache)
            for topology, matching, rate in zip(topologies, matchings, rates)
        ]


class ExactLPBackend(ThroughputBackend):
    """Ground truth: always solve the maximum-concurrent-flow LP."""

    name = "exact-lp"
    scenario_method = "lp"

    def theta(self, topology, matching, reference_rate=None, cache=default_cache):
        return compute_theta(
            topology, matching, reference_rate, method="lp", cache=cache
        )


class WarmStartLPBackend(ThroughputBackend):
    """Exact theta with seed paths reused across LP families.

    Routes through the process-wide :class:`~repro.flows.WarmStartLPSolver`
    (``method="lp-warm"``).  Values are identical to ``exact-lp``; only
    the amortization differs, so this is the backend of choice for
    degraded-fabric sweeps that solve many capacity states of one
    fabric.
    """

    name = "exact-lp-warm"
    scenario_method = "lp-warm"

    def theta(self, topology, matching, reference_rate=None, cache=default_cache):
        return compute_theta(
            topology, matching, reference_rate, method="lp-warm", cache=cache
        )


class ClosedFormBackend(ThroughputBackend):
    """Closed form when a formula exists, exact LP otherwise."""

    name = "closed-form"
    scenario_method = "auto"

    def theta(self, topology, matching, reference_rate=None, cache=default_cache):
        return compute_theta(
            topology, matching, reference_rate, method="auto", cache=cache
        )

    def theta_many(
        self, topologies, matchings, reference_rate=None, cache=default_cache
    ):
        """One vectorized pass per distinct topology in the grid."""
        values = theta_batch(
            topologies, matchings, reference_rate, method="auto", cache=cache
        )
        return [float(v) for v in values]


class BlockLPBackend(ThroughputBackend):
    """Exact blockwise theta for pod fabrics; flat-LP fallback otherwise.

    Routes through ``method="block"``
    (:func:`repro.flows.pod_theta`): pod-structured topologies are
    decomposed into per-pod LPs plus a coarse inter-pod stitch, with
    bounds screening and process-wide subproblem dedup.  On a uniform
    pattern an n=1024 fabric of 16 equal pods prices with two small
    LPs.  ``theta_many`` batches through
    :func:`repro.flows.theta_batch`, which additionally prices
    duplicate rows once per group — the route ``plan_many`` takes for
    pod-structured grids under ``theta_backend="block-lp"``.
    """

    name = "block-lp"
    scenario_method = "block"

    def theta(self, topology, matching, reference_rate=None, cache=default_cache):
        return compute_theta(
            topology, matching, reference_rate, method="block", cache=cache
        )

    def theta_many(
        self, topologies, matchings, reference_rate=None, cache=default_cache
    ):
        values = theta_batch(
            topologies, matchings, reference_rate, method="block", cache=cache
        )
        return [float(v) for v in values]


class BoundsBackend(ThroughputBackend):
    """The cheap upper/lower envelope, for coarse grid pre-screening."""

    name = "bounds"
    scenario_method = None

    def envelope(
        self,
        topology: Topology,
        matching: Matching,
        reference_rate: float | None = None,
        cache: ThroughputCache | None = default_cache,
    ) -> ThetaEnvelope:
        """Both edges (each memoized under its own estimator tag)."""
        lower = compute_theta(
            topology, matching, reference_rate, method="sp", cache=cache
        )
        upper = compute_theta(
            topology, matching, reference_rate, method="proxy", cache=cache
        )
        return ThetaEnvelope(lower=lower, upper=upper)

    def theta(self, topology, matching, reference_rate=None, cache=default_cache):
        """The optimistic (upper) edge — the standard screening value."""
        return self.envelope(topology, matching, reference_rate, cache).upper


_BACKENDS: dict[str, ThroughputBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_throughput_backend(
    backend: ThroughputBackend, *, overwrite: bool = False
) -> None:
    """Register a backend under its ``name``.

    Raises :class:`~repro.exceptions.ConfigurationError` on duplicate
    names unless ``overwrite=True``.
    """
    name = str(getattr(backend, "name", "") or "")
    if not name:
        raise ConfigurationError("throughput backend needs a non-empty name")
    if not callable(getattr(backend, "theta", None)):
        raise ConfigurationError(
            f"throughput backend {name!r} must provide a theta() method"
        )
    with _REGISTRY_LOCK:
        if name in _BACKENDS and not overwrite:
            raise ConfigurationError(
                f"throughput backend {name!r} is already registered; pass "
                f"overwrite=True to replace it"
            )
        _BACKENDS[name] = backend


def unregister_throughput_backend(name: str) -> None:
    """Remove a registered backend (primarily for tests)."""
    with _REGISTRY_LOCK:
        if name not in _BACKENDS:
            raise ConfigurationError(
                f"throughput backend {name!r} is not registered"
            )
        del _BACKENDS[name]


def available_throughput_backends() -> tuple[str, ...]:
    """Sorted names of all registered throughput backends."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_BACKENDS))


def get_throughput_backend(name: str) -> ThroughputBackend:
    """Look up a backend by name."""
    with _REGISTRY_LOCK:
        backend = _BACKENDS.get(name)
    if backend is None:
        raise ConfigurationError(
            f"unknown throughput backend {name!r}; available: "
            f"{available_throughput_backends()}"
        )
    return backend


def compute_theta_backend(
    topology: Topology,
    matching: Matching,
    reference_rate: float | None = None,
    backend: str = "closed-form",
    cache: ThroughputCache | None = default_cache,
) -> float:
    """Evaluate theta through a named backend (the engine front door)."""
    return get_throughput_backend(backend).theta(
        topology, matching, reference_rate, cache
    )


def compute_theta_backend_many(
    topologies: "Topology | Sequence[Topology]",
    matchings: Sequence[Matching],
    reference_rate: "float | Sequence[float] | None" = None,
    backend: str = "closed-form",
    cache: ThroughputCache | None = default_cache,
) -> list[float]:
    """Evaluate a whole grid through a named backend's batch path."""
    return get_throughput_backend(backend).theta_many(
        topologies, matchings, reference_rate, cache
    )


def theta_envelope(
    topology: Topology,
    matching: Matching,
    reference_rate: float | None = None,
    cache: ThroughputCache | None = default_cache,
) -> ThetaEnvelope:
    """The ``bounds`` backend's sandwich for one pattern."""
    backend = get_throughput_backend("bounds")
    if not isinstance(backend, BoundsBackend):  # pragma: no cover - guard
        raise FlowError("the 'bounds' backend was replaced by a non-envelope one")
    return backend.envelope(topology, matching, reference_rate, cache)


def scenario_theta_method(backend: str) -> str:
    """Map a backend name to the ``Scenario.theta_method`` it implies.

    Used by the engine's batch entry points to route whole grids
    through one backend; envelope-style backends have no scalar
    scenario routing and raise.
    """
    method = get_throughput_backend(backend).scenario_method
    if method is None:
        raise ConfigurationError(
            f"throughput backend {backend!r} produces envelopes, not scalar "
            "theta values; it cannot drive scenario planning (use it for "
            "pre-screening via theta_envelope)"
        )
    return method


def register_builtin_backends(overwrite: bool = False) -> None:
    """Install the built-in backend set into the registry."""
    register_throughput_backend(ExactLPBackend(), overwrite=overwrite)
    register_throughput_backend(WarmStartLPBackend(), overwrite=overwrite)
    register_throughput_backend(ClosedFormBackend(), overwrite=overwrite)
    register_throughput_backend(BoundsBackend(), overwrite=overwrite)
    register_throughput_backend(BlockLPBackend(), overwrite=overwrite)


register_builtin_backends()
