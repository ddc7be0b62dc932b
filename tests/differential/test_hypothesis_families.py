"""Property-based cross-checks: random topologies, matchings, health.

Hypothesis generates the scenario families the hand-written cases can't
anticipate — random partial matchings, random permutations, random
port-dimming and lane-failure states — and the differential contracts
must hold on every draw: batch kernels equal scalar closed forms, and
degraded fabrics agree between the batch and scalar routes and the
certified LP at 1e-9.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from families import RATE, agree, certified_theta
from repro.fabric import FabricHealth
from repro.flows import commodities_from_matching, compute_theta, theta_batch
from repro.flows.closed_forms import (
    closed_form_theta_batch,
    try_closed_form_theta,
)
from repro.matching import Matching
from repro.topology import hypercube, ring

#: Domain sizes: small enough for fast LPs, varied enough to matter.
SIZES = (4, 8)


@st.composite
def matchings(draw, n: int) -> Matching:
    """A random matching on ``n`` ranks: full permutations (shifted,
    shuffled) and random partial matchings, biased toward the shapes
    with closed forms so both sides of the dispatch get exercised."""
    kind = draw(st.sampled_from(["shift", "perm", "partial", "empty"]))
    if kind == "shift":
        return Matching.shift(n, draw(st.integers(1, n - 1)))
    if kind == "perm":
        perm = draw(st.permutations(range(n)))
        return Matching(
            n, [(i, p) for i, p in enumerate(perm) if i != p]
        )
    if kind == "partial":
        srcs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        dsts = draw(
            st.lists(
                st.integers(0, n - 1),
                unique=True,
                min_size=len(srcs),
                max_size=len(srcs),
            )
        )
        return Matching(
            n, [(s, d) for s, d in zip(srcs, dsts) if s != d]
        )
    return Matching(n, [])


@st.composite
def health_states(draw, n: int) -> FabricHealth:
    """A random fabric condition: dim a few ports, fail a ring lane or
    two, drop a wavelength — anything apply() accepts."""
    dimmed = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.floats(0.3, 1.0, allow_nan=False),
            max_size=3,
        )
    )
    n_failures = draw(st.integers(0, 2))
    failures = [
        (r, (r + 1) % n)
        for r in draw(
            st.lists(
                st.integers(0, n - 1),
                unique=True,
                min_size=n_failures,
                max_size=n_failures,
            )
        )
    ]
    dead = draw(st.integers(0, 1))
    return FabricHealth(
        port_multipliers=tuple(dimmed.items()),
        failed_transceivers=tuple(failures),
        dead_wavelengths=dead,
        total_wavelengths=4,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_batch_closed_form_equals_scalar_on_random_matchings(data, n):
    topology = data.draw(
        st.sampled_from([ring(n, RATE), hypercube(n, RATE)])
    )
    batch = [data.draw(matchings(n)) for _ in range(5)]
    values = closed_form_theta_batch(topology, batch)
    for matching, value in zip(batch, values):
        scalar = try_closed_form_theta(topology, matching)
        if scalar is None:
            assert math.isnan(value)
        else:
            assert value == scalar


@settings(max_examples=25, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_theta_batch_equals_compute_theta_on_random_rows(data, n):
    topology = data.draw(
        st.sampled_from([ring(n, RATE), hypercube(n, RATE)])
    )
    rows = [data.draw(matchings(n)) for _ in range(4)]
    values = theta_batch(topology, rows, RATE, cache=None)
    for matching, value in zip(rows, values):
        assert agree(value, compute_theta(topology, matching, RATE, cache=None))


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


@settings(max_examples=20, deadline=None)
@given(data=st.data(), n=st.sampled_from(SIZES))
def test_degraded_batch_rows_route_to_lp_and_agree(data, n):
    topology = ring(n, RATE)
    health = data.draw(health_states(n))
    degraded = health.apply(topology)
    rows = [data.draw(matchings(n)) for _ in range(3)]
    values = theta_batch(degraded, rows, RATE, cache=None)
    for matching, value in zip(rows, values):
        assert agree(
            value, compute_theta(degraded, matching, RATE, cache=None)
        )
