"""Block decomposition vs flat LP: exact agreement at 1e-9.

The blockwise decomposition claims *exactness*, not approximation:
for pods joined only through a non-blocking core switch,

    theta_flat = min(min_p phi_p, phi_coarse).

These tests are the claim's enforcement.  Hand-picked fabrics cover
the structured corners (uneven pods, degraded and severed uplinks,
FabricHealth-dimmed ports, every pod family); hypothesis then generates
the fabrics and matchings nobody hand-picks — random pod counts and
sizes, random uplink health, random partial cross-pod matchings — and
the equality must hold on every draw.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from families import RATE, agree, certified_theta
from repro.fabric.degradation import hotspot, uniform_degradation
from repro.flows import commodities_from_matching, compute_theta, pod_theta
from repro.matching import Matching
from repro.topology import PodFabric

TOL = 1e-9


def flat_theta(topology, matching) -> float:
    return certified_theta(topology, commodities_from_matching(matching))


def assert_block_equals_flat(topology, matching):
    block = pod_theta(topology, matching, RATE)
    flat = flat_theta(topology, matching)
    assert agree(block, flat, TOL), (
        f"block={block!r} flat={flat!r} on {topology.name!r} "
        f"with {len(matching)} pairs"
    )


def patterns(n: int) -> list[Matching]:
    out = [Matching.shift(n, k) for k in (1, 2, n // 2, n - 1)]
    if n & (n - 1) == 0:
        out.append(Matching.xor_exchange(n, n // 2))
    out.append(Matching(n, [(i, (i + 2) % n) for i in range(0, n, 2)]))
    out.append(Matching(n, [(0, n - 1)]))
    return out


@pytest.mark.parametrize("family", ["ring", "full_mesh", "line", "hypercube"])
def test_even_pods_every_family(family):
    sizes = (8, 8) if family == "hypercube" else (6, 6)
    fabric = PodFabric(
        pod_sizes=sizes, bandwidth=RATE, pod_family=family, uplinks_per_pod=2
    )
    topology = fabric.flat_topology()
    for matching in patterns(fabric.n):
        assert_block_equals_flat(topology, matching)


def test_uneven_pods():
    fabric = PodFabric(
        pod_sizes=(4, 8, 6), bandwidth=RATE, uplinks_per_pod=2
    )
    topology = fabric.flat_topology()
    for matching in patterns(fabric.n):
        assert_block_equals_flat(topology, matching)


def test_degraded_uplinks():
    fabric = PodFabric(
        pod_sizes=(6, 6, 6),
        bandwidth=RATE,
        uplinks_per_pod=2,
        uplink_multipliers=(1.0, 0.25, 0.6),
    )
    topology = fabric.flat_topology()
    for matching in patterns(fabric.n):
        assert_block_equals_flat(topology, matching)


def test_severed_pod():
    fabric = PodFabric(
        pod_sizes=(6, 6),
        bandwidth=RATE,
        uplinks_per_pod=2,
        uplink_multipliers=(1.0, 0.0),
    )
    topology = fabric.flat_topology()
    for matching in patterns(fabric.n):
        assert_block_equals_flat(topology, matching)


def test_fabric_health_degradation():
    fabric = PodFabric(pod_sizes=(6, 6), bandwidth=RATE, uplinks_per_pod=2)
    for health in (
        uniform_degradation(12, 0.7),
        hotspot(12, center=2, radius=1, severity=0.5),
    ):
        topology = fabric.degraded(health)
        for matching in patterns(12)[:4]:
            assert_block_equals_flat(topology, matching)


def test_exact_theta_takes_the_block_route():
    fabric = PodFabric(pod_sizes=(6, 6), bandwidth=RATE, uplinks_per_pod=2)
    topology = fabric.flat_topology()
    matching = Matching.shift(12, 5)
    routed = compute_theta(topology, matching, RATE, cache=None)
    assert routed == pod_theta(topology, matching, RATE)
    assert agree(routed, flat_theta(topology, matching), TOL)


@st.composite
def pod_fabrics(draw) -> PodFabric:
    """A random hierarchical fabric: 2-3 pods of uneven sizes, any pure
    rank family, 1-2 uplinks, possibly degraded or severed uplinks."""
    n_pods = draw(st.integers(2, 3))
    family = draw(st.sampled_from(["ring", "full_mesh", "line"]))
    sizes = tuple(
        draw(st.lists(st.integers(3, 6), min_size=n_pods, max_size=n_pods))
    )
    uplinks = draw(st.integers(1, 2))
    if draw(st.booleans()):
        multipliers = tuple(
            draw(
                st.lists(
                    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                    min_size=n_pods,
                    max_size=n_pods,
                )
            )
        )
    else:
        multipliers = ()
    return PodFabric(
        pod_sizes=sizes,
        bandwidth=RATE,
        pod_family=family,
        uplinks_per_pod=uplinks,
        uplink_multipliers=multipliers,
    )


@st.composite
def fabric_matchings(draw, n: int) -> Matching:
    """Random pairs biased toward cross-pod traffic, plus permutations."""
    kind = draw(st.sampled_from(["shift", "perm", "partial"]))
    if kind == "shift":
        return Matching.shift(n, draw(st.integers(1, n - 1)))
    if kind == "perm":
        perm = draw(st.permutations(range(n)))
        return Matching(n, [(i, p) for i, p in enumerate(perm) if i != p])
    srcs = draw(
        st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=n)
    )
    dsts = draw(
        st.lists(
            st.integers(0, n - 1),
            unique=True,
            min_size=len(srcs),
            max_size=len(srcs),
        )
    )
    return Matching(n, [(s, d) for s, d in zip(srcs, dsts) if s != d])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_equals_flat_on_random_fabrics(data):
    fabric = data.draw(pod_fabrics())
    topology = fabric.flat_topology()
    matching = data.draw(fabric_matchings(fabric.n))
    if len(matching) == 0:
        return
    assert_block_equals_flat(topology, matching)
