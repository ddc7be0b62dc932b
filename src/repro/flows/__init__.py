"""Network throughput: maximum concurrent flow, proxies, and caching.

The central entry point is :func:`compute_theta`, which evaluates the
congestion term ``theta(G, M_i)`` of the paper's cost model (Eq. 3) for
a topology/matching pair: exactly (closed form, else pod blocks, else
the certified LP) or by a cheap bound.
"""

from __future__ import annotations

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology
from .block import (
    BlockStats,
    block_stats,
    pod_structure,
    pod_theta,
    reset_block_stats,
)
from .bounds import (
    theta_lower_bound_shortest_path,
    theta_proxy,
    theta_upper_bound_flowhops,
    theta_upper_bound_ports,
)
from .cache import (
    CacheStats,
    ThetaStore,
    ThroughputCache,
    default_cache,
    theta_key_digest,
    theta_tag,
)
from .closed_forms import (
    detect_uniform_shift,
    rate_factor,
    ring_shift_theta,
    try_closed_form_theta,
)
from .concurrent_flow import (
    Commodity,
    ConcurrentFlowResult,
    ThetaCertificate,
    commodities_from_matching,
    commodities_from_matrix,
    max_concurrent_flow,
    verify_certificate,
)
from .routing import (
    PathLengthRule,
    RoutingResult,
    hop_distances,
    path_length,
    route_k_shortest_split,
    route_shortest_paths,
)

__all__ = [
    "Commodity",
    "ConcurrentFlowResult",
    "ThetaCertificate",
    "max_concurrent_flow",
    "verify_certificate",
    "commodities_from_matching",
    "commodities_from_matrix",
    "compute_theta",
    "PathLengthRule",
    "RoutingResult",
    "path_length",
    "hop_distances",
    "route_shortest_paths",
    "route_k_shortest_split",
    "theta_proxy",
    "theta_upper_bound_ports",
    "theta_upper_bound_flowhops",
    "theta_lower_bound_shortest_path",
    "ring_shift_theta",
    "detect_uniform_shift",
    "try_closed_form_theta",
    "CacheStats",
    "ThetaStore",
    "ThroughputCache",
    "default_cache",
    "theta_key_digest",
    "theta_tag",
    "pod_theta",
    "pod_structure",
    "BlockStats",
    "block_stats",
    "reset_block_stats",
]

_METHODS = ("auto", "sp", "proxy")


def compute_theta(
    topology: Topology,
    matching: Matching,
    reference_rate: float | None = None,
    method: str = "auto",
    cache: ThroughputCache | None = default_cache,
) -> float:
    """Evaluate ``theta(G, M)`` for one collective step.

    Parameters
    ----------
    topology:
        The base topology ``G``.
    matching:
        The step's communication pattern ``M``.
    reference_rate:
        Capacity normalizer (transceiver bandwidth ``b``).  Defaults to
        the topology's recorded ``reference_rate`` metadata.
    method:
        * ``"auto"`` — the exact theta, by the cheapest exact route:
          the closed form when one exists, else the blockwise
          decomposition (:func:`pod_theta`) when the topology has a
          pod structure, else the certified :func:`max_concurrent_flow`;
        * ``"sp"`` — shortest-path feasible-routing lower bound;
        * ``"proxy"`` — degree/flow-hop upper-bound proxy.
    cache:
        Memo table; pass ``None`` to disable caching.  Values are stored
        under :func:`theta_tag`.
    """
    if method not in _METHODS:
        raise FlowError(f"unknown theta method {method!r}; choose from {_METHODS}")
    if reference_rate is None:
        reference_rate = topology.metadata.get("reference_rate")
        if reference_rate is None:
            raise FlowError(
                "reference_rate not given and topology metadata has none"
            )
    reference_rate = float(reference_rate)

    def evaluate() -> float:
        if len(matching) == 0:
            return float("inf")
        if method == "sp":
            return theta_lower_bound_shortest_path(
                topology, matching, reference_rate
            )
        if method == "proxy":
            return theta_proxy(topology, matching, reference_rate)
        value = try_closed_form_theta(topology, matching)
        if value is not None:
            return value * rate_factor(topology, reference_rate)
        if pod_structure(topology) is not None:
            return pod_theta(topology, matching, reference_rate)
        commodities = commodities_from_matching(matching)
        return max_concurrent_flow(topology, commodities, reference_rate).theta

    if cache is None:
        return evaluate()
    return cache.get_or_compute(
        topology, matching, evaluate, tag=theta_tag(reference_rate, method)
    )
