"""Pod pricing on warm memos vs cleared memos vs the flat LP: 1e-9.

:func:`repro.flows.pod_theta` re-uses every pod subproblem value and
bounds sandwich it has seen, keyed by the subproblem's content, so a
re-price after a perturbation runs LPs only for the pods that changed.
The claim is *exactness*, not approximation: re-using memoized values
and screening against them must give the theta the same fabric prices
on cleared memos, and the flat LP's.  These tests drive
hypothesis-generated *chains* of perturbations (port dimming, uplink
health changes, demand drift) through the process-wide memos and pin
every link of each chain against both.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from families import RATE, agree
from test_block_vs_flat import fabric_matchings, flat_theta, pod_fabrics
from repro.fabric.degradation import FabricHealth
from repro.flows import pod_theta
from repro.flows.block import _clear_block_memos
from repro.topology import PodFabric

TOL = 1e-9


def assert_chain_exact(links) -> None:
    """Price each ``(topology, matching)`` link on cleared memos first,
    then the whole chain in order on warm memos: every warm value must
    equal its cleared-memo value and the flat LP."""
    cold = []
    for topology, matching in links:
        _clear_block_memos()
        cold.append(pod_theta(topology, matching, RATE))
    _clear_block_memos()
    for (topology, matching), expected in zip(links, cold):
        warm = pod_theta(topology, matching, RATE)
        flat = flat_theta(topology, matching)
        assert agree(warm, expected, TOL), (
            f"warm={warm!r} cleared={expected!r} on {topology.name!r}"
        )
        assert agree(warm, flat, TOL), (
            f"warm={warm!r} flat={flat!r} on {topology.name!r}"
        )


@st.composite
def health_conditions(draw, n: int) -> FabricHealth | None:
    """A small intra-pod health overlay (or pristine)."""
    if draw(st.booleans()):
        return None
    ranks = draw(
        st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=3)
    )
    values = draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 0.75]),
            min_size=len(ranks),
            max_size=len(ranks),
        )
    )
    return FabricHealth(port_multipliers=tuple(zip(ranks, values)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_health_perturbation_chains(data):
    """Chains of health overlays on one fabric and one pattern."""
    fabric = data.draw(pod_fabrics())
    base = fabric.flat_topology()
    matching = data.draw(fabric_matchings(fabric.n))
    if len(matching) == 0:
        return
    links = []
    for _ in range(data.draw(st.integers(2, 4))):
        health = data.draw(health_conditions(fabric.n))
        links.append((base if health is None else health.apply(base), matching))
    assert_chain_exact(links)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_demand_drift_chains(data):
    """Pattern-to-pattern drift on one fabric."""
    fabric = data.draw(pod_fabrics())
    topology = fabric.flat_topology()
    links = []
    for _ in range(data.draw(st.integers(2, 4))):
        matching = data.draw(fabric_matchings(fabric.n))
        if len(matching):
            links.append((topology, matching))
    assert_chain_exact(links)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_uplink_perturbation_chains(data):
    """Per-pod uplink health changes on one pod layout."""
    n_pods = data.draw(st.integers(2, 3))
    sizes = tuple(
        data.draw(st.lists(st.integers(3, 5), min_size=n_pods, max_size=n_pods))
    )
    matching = data.draw(fabric_matchings(sum(sizes)))
    if len(matching) == 0:
        return
    links = []
    for _ in range(data.draw(st.integers(2, 4))):
        multipliers = tuple(
            data.draw(
                st.lists(
                    st.sampled_from([0.25, 0.5, 1.0]),
                    min_size=n_pods,
                    max_size=n_pods,
                )
            )
        )
        fabric = PodFabric(
            pod_sizes=sizes,
            bandwidth=RATE,
            uplinks_per_pod=1,
            uplink_multipliers=multipliers,
        )
        links.append((fabric.flat_topology(), matching))
    assert_chain_exact(links)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_reprice_after_pristine_matches_cleared_memos(data):
    """Price the pristine fabric, then one health overlay on top: the
    re-price served from the pristine memos equals a cleared-memo price
    and the flat LP (the old parts-reuse chain)."""
    fabric = data.draw(pod_fabrics())
    base = fabric.flat_topology()
    matching = data.draw(fabric_matchings(fabric.n))
    if len(matching) == 0:
        return
    health = data.draw(health_conditions(fabric.n))
    topology = base if health is None else health.apply(base)
    assert_chain_exact([(base, matching), (topology, matching)])
