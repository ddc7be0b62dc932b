"""Property-based tests for the max-concurrent-flow LP layer.

Three invariants any correct LP solution must satisfy, checked over
random topologies, commodity sets, and demands:

* **feasibility** — the reported flows respect every capacity and route
  exactly ``theta * demand`` per commodity;
* **scale invariance** — multiplying every capacity *and* the reference
  rate by the same factor leaves theta unchanged, while multiplying
  capacities alone scales theta linearly;
* **monotonicity** — adding capacity can never decrease theta, and
  adding a commodity can never increase it.

The scale law also holds for ``compute_theta``'s exact route, whichever
of the closed form, the pod blocks or the LP prices the step.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows import (
    Commodity,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
)
from repro.matching import Matching
from repro.topology import PodFabric, coprime_rings, full_mesh, ring
from repro.units import Gbps

RATE = Gbps(800)


def _topology(kind: str, n: int):
    if kind == "ring":
        return ring(n, RATE)
    if kind == "uniring":
        return ring(n, RATE, bidirectional=False)
    if kind == "mesh":
        return full_mesh(n, RATE / 4)
    return coprime_rings(n, (3,), RATE)


@st.composite
def lp_instances(draw):
    """A random (topology, commodities) pair with a finite nonzero LP."""
    n = draw(st.integers(4, 8))
    kind = draw(st.sampled_from(["ring", "uniring", "mesh", "coprime"]))
    topology = _topology(kind, n)
    size = draw(st.integers(1, n))
    sources = draw(st.permutations(range(n)))
    destinations = draw(st.permutations(range(n)))
    commodities = tuple(
        Commodity(s, d, draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])))
        for s, d in zip(sources[:size], destinations[:size])
        if s != d
    )
    return topology, commodities


@settings(max_examples=30, deadline=None)
@given(instance=lp_instances())
def test_solution_is_feasible_and_routes_theta_demand(instance):
    topology, commodities = instance
    result = max_concurrent_flow(topology, commodities, RATE, return_flows=True)
    theta = result.theta
    if not commodities:
        assert math.isinf(theta)
        return
    if theta == 0.0 or math.isinf(theta):
        return
    # Capacity feasibility: per-edge flow summed over commodities never
    # exceeds normalized capacity (small LP slack allowed).
    slack = 1e-7
    totals: dict = {}
    for per_commodity in result.edge_flows:
        for edge, flow in per_commodity.items():
            totals[edge] = totals.get(edge, 0.0) + flow
    for (u, v), flow in totals.items():
        assert flow <= topology.capacity(u, v) / RATE + slack, (u, v)
    # Every commodity's net outflow at its source is theta * demand.
    for commodity, per_commodity in zip(commodities, result.edge_flows):
        net = 0.0
        for (u, v), flow in per_commodity.items():
            if u == commodity.src:
                net += flow
            if v == commodity.src:
                net -= flow
        assert math.isclose(
            net, theta * commodity.demand, rel_tol=1e-6, abs_tol=1e-7
        ), commodity


@settings(max_examples=30, deadline=None)
@given(
    instance=lp_instances(),
    factor=st.sampled_from([0.5, 2.0, 3.0, 8.0]),
)
def test_scale_invariance(instance, factor):
    topology, commodities = instance
    base = max_concurrent_flow(topology, commodities, RATE).theta
    scaled = topology.scaled(factor)
    # Capacities and reference rate together: theta is dimensionless.
    joint = max_concurrent_flow(scaled, commodities, RATE * factor).theta
    if math.isinf(base):
        assert math.isinf(joint)
    else:
        assert math.isclose(joint, base, rel_tol=1e-7, abs_tol=1e-9)
    # Capacities alone: theta scales linearly with the fabric.
    alone = max_concurrent_flow(scaled, commodities, RATE).theta
    if math.isinf(base):
        assert math.isinf(alone)
    else:
        assert math.isclose(alone, base * factor, rel_tol=1e-7, abs_tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(instance=lp_instances(), extra=st.sampled_from([1.25, 2.0, 5.0]))
def test_adding_capacity_never_decreases_theta(instance, extra):
    topology, commodities = instance
    before = max_concurrent_flow(topology, commodities, RATE).theta
    after = max_concurrent_flow(topology.scaled(extra), commodities, RATE).theta
    if math.isinf(before):
        assert math.isinf(after)
    else:
        assert after >= before - 1e-9


@settings(max_examples=30, deadline=None)
@given(instance=lp_instances())
def test_adding_a_commodity_never_increases_theta(instance):
    topology, commodities = instance
    if not commodities:
        return
    before = max_concurrent_flow(topology, commodities[:-1], RATE).theta
    after = max_concurrent_flow(topology, commodities, RATE).theta
    if math.isinf(after):
        assert math.isinf(before)
    else:
        assert after <= before + 1e-9 or math.isinf(before)


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    kind=st.sampled_from(["ring", "uniring", "mesh", "coprime", "pods"]),
    k=st.integers(1, 7),
    factor=st.sampled_from([0.5, 2.0]),
)
def test_exact_route_inherits_the_scale_law(n, kind, k, factor):
    """``compute_theta`` satisfies the LP's scale law on every route —
    closed form (rings), pod blocks (pod fabrics) and LP (the rest) —
    and stays equal to the LP on the scaled fabric."""
    if kind == "pods":
        topology = PodFabric(
            pod_sizes=(n // 2, n - n // 2), bandwidth=RATE, uplinks_per_pod=2
        ).flat_topology()
    else:
        topology = _topology(kind, n)
    matching = Matching.shift(n, 1 + (k - 1) % (n - 1))
    scaled = topology.scaled(factor)
    base = compute_theta(topology, matching, RATE, cache=None)
    alone = compute_theta(scaled, matching, RATE, cache=None)
    assert math.isclose(alone, base * factor, rel_tol=1e-9, abs_tol=1e-12)
    lp = max_concurrent_flow(
        scaled, commodities_from_matching(matching), RATE
    ).theta
    assert math.isclose(alone, lp, rel_tol=1e-9, abs_tol=1e-12)


def test_shift_on_ring_matches_known_closed_form():
    """Anchor the properties to one analytically known value: a shift-k
    permutation on a bidirectional ring moves theta like 1/min(k, n-k)
    per direction-optimal routing."""
    n = 8
    topology = ring(n, RATE)
    for k in range(1, n):
        lp = max_concurrent_flow(
            topology, commodities_from_matching(Matching.shift(n, k)), RATE
        ).theta
        from repro.flows.closed_forms import try_closed_form_theta

        closed = try_closed_form_theta(topology, Matching.shift(n, k))
        assert closed is not None
        assert math.isclose(lp, closed, rel_tol=1e-9, abs_tol=1e-9)
