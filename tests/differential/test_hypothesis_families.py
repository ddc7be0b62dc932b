"""Property-based cross-checks: random topologies, matchings, health.

Hypothesis generates the scenario families the hand-written cases can't
anticipate — random partial matchings, random permutations, random
port-dimming and lane-failure states — and the differential contracts
must hold on every draw: a closed form, wherever one applies, equals the
certified LP, and on degraded fabrics the exact route agrees with the
certified LP at 1e-9.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from families import RATE, agree, certified_theta, health_states, matchings
from repro.flows import commodities_from_matching, compute_theta
from repro.flows.closed_forms import try_closed_form_theta
from repro.matching import Matching
from repro.topology import coprime_rings, hypercube, matched_topology, ring

#: Domain sizes: small enough for fast LPs, varied enough to matter.
SIZES = (4, 8)

#: Every topology family with a closed form, built at ``n`` ranks.
CLOSED_FORM_TOPOLOGIES = {
    "ring": lambda n: ring(n, RATE),
    "ring-unidirectional": lambda n: ring(n, RATE, bidirectional=False),
    "hypercube": lambda n: hypercube(n, RATE),
    "coprime-rings": lambda n: coprime_rings(n, (3,), RATE),
    "matched": lambda n: matched_topology(Matching.shift(n, 1), RATE),
}


@pytest.mark.parametrize("family", sorted(CLOSED_FORM_TOPOLOGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_closed_form_equals_certified_lp_on_random_matchings(family, data, n):
    topology = CLOSED_FORM_TOPOLOGIES[family](n)
    matching = data.draw(matchings(n))
    closed = try_closed_form_theta(topology, matching)
    if closed is not None:
        lp = certified_theta(topology, commodities_from_matching(matching))
        assert agree(closed, lp), (topology.name, matching)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_exact_route_equals_cold_lp_on_random_states(data, n):
    """The hardest mix: random health applied to a ring, random
    matching — the exact route and the certified LP must agree on
    every draw, and a cached re-read must return the same value."""
    from repro.flows import ThroughputCache

    degraded = data.draw(health_states(n)).apply(ring(n, RATE))
    matching = data.draw(matchings(n))
    cold = certified_theta(degraded, commodities_from_matching(matching))
    cache = ThroughputCache()
    exact = compute_theta(degraded, matching, RATE, cache=cache)
    assert agree(cold, exact)
    assert compute_theta(degraded, matching, RATE, cache=cache) == exact
    assert cache.stats().misses == 1
