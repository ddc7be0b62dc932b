"""Cheap bounds and proxies for the congestion factor (research agenda).

The paper's research agenda ("Simplifying the congestion factor in the
cost model") asks for approximations of ``theta(G, M_i)`` that avoid the
LP.  This module provides:

* two *upper* bounds — port capacity and total flow-hops — whose minimum
  is the degree-style proxy the paper sketches, and
* a *lower* bound from feasible shortest-path routing.

The sandwich ``theta_sp <= theta_LP <= theta_proxy`` is asserted by the
property-based tests.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology
from .concurrent_flow import Commodity, commodities_from_matching
from .routing import route_shortest_paths

__all__ = [
    "theta_upper_bound_ports",
    "theta_upper_bound_flowhops",
    "theta_proxy",
    "theta_lower_bound_shortest_path",
]


def _as_commodities(
    demand: Matching | Sequence[Commodity],
) -> tuple[Commodity, ...]:
    if isinstance(demand, Matching):
        return commodities_from_matching(demand)
    return tuple(demand)


def theta_upper_bound_ports(
    topology: Topology,
    demand: Matching | Sequence[Commodity],
    reference_rate: float,
) -> float:
    """Port (degree) bound: no commodity can exceed its endpoints' I/O.

    Sums demands per source and per destination, then bounds theta by
    the tightest egress/ingress capacity ratio.
    """
    commodities = _as_commodities(demand)
    if not commodities:
        return float("inf")
    out_demand: dict[object, float] = {}
    in_demand: dict[object, float] = {}
    for commodity in commodities:
        out_demand[commodity.src] = out_demand.get(commodity.src, 0.0) + commodity.demand
        in_demand[commodity.dst] = in_demand.get(commodity.dst, 0.0) + commodity.demand
    bound = float("inf")
    for node, demand_units in out_demand.items():
        bound = min(bound, topology.out_capacity(node) / reference_rate / demand_units)
    for node, demand_units in in_demand.items():
        bound = min(bound, topology.in_capacity(node) / reference_rate / demand_units)
    return bound


def theta_upper_bound_flowhops(
    topology: Topology,
    demand: Matching | Sequence[Commodity],
    reference_rate: float,
) -> float:
    """Flow-hop (volumetric) bound.

    Any routing of commodity k uses at least ``dist(src, dst)`` edge
    traversals, so total capacity must cover
    ``theta * sum_k w_k * dist_k``:

        theta <= total_capacity / sum_k (w_k * dist_k).

    A commodity with no path bounds theta at 0.0.
    """
    commodities = _as_commodities(demand)
    if not commodities:
        return float("inf")
    total_capacity = sum(c for _, _, c in topology.edges()) / reference_rate
    flow_hops = 0.0
    for commodity in commodities:
        if not topology.has_path(commodity.src, commodity.dst):
            return 0.0
        flow_hops += commodity.demand * topology.hop_distance(
            commodity.src, commodity.dst
        )
    if flow_hops == 0:
        return float("inf")
    return total_capacity / flow_hops


def theta_proxy(
    topology: Topology,
    demand: Matching | Sequence[Commodity],
    reference_rate: float,
) -> float:
    """The paper's degree-style congestion proxy: min of the two upper
    bounds.  Exact on symmetric patterns over edge-transitive topologies
    (e.g. uniform shifts on rings); optimistic otherwise."""
    return min(
        theta_upper_bound_ports(topology, demand, reference_rate),
        theta_upper_bound_flowhops(topology, demand, reference_rate),
    )


def theta_lower_bound_shortest_path(
    topology: Topology,
    demand: Matching | Sequence[Commodity],
    reference_rate: float,
) -> float:
    """Feasible-routing lower bound via single shortest paths."""
    commodities = _as_commodities(demand)
    if not commodities:
        return float("inf")
    for commodity in commodities:
        if not topology.has_path(commodity.src, commodity.dst):
            return 0.0
    return route_shortest_paths(topology, commodities, reference_rate).theta
