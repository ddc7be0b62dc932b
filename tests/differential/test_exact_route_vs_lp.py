"""``compute_theta``'s exact route vs the cold certified LP.

The exact route prices each row by the closed form, the pod blocks or
``max_concurrent_flow``.  Whichever it takes, its value must be the
certified LP theta at the 1e-9 differential contract, and it must be
stored under the one ``auto`` cache tag.  The families put the cases
the route must get right side by side: capacity perturbations (degraded
fabrics, same graph and new capacities), demand movement (workload
phases, same fabric and new patterns), and the screens for empty and
disconnected steps.
"""

from __future__ import annotations

import pytest

from families import (
    RATE,
    ROUNDING,
    agree,
    certified_theta,
    closed_form_families,
    degraded_variants,
    lp_only_families,
    pod_families,
    xor_distances,
)
from repro.flows import (
    Commodity,
    ThetaCertificate,
    ThroughputCache,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    theta_tag,
    try_closed_form_theta,
    verify_certificate,
)
from repro.matching import Matching
from repro.topology import PodFabric, full_mesh, matched_topology, ring


def _exact(topology, matching, cache=None) -> float:
    return compute_theta(topology, matching, RATE, cache=cache)


def _lp(topology, matching) -> float:
    return certified_theta(topology, commodities_from_matching(matching))


class TestExactRouteAgreesWithTheLP:
    @pytest.mark.parametrize(
        "families", [closed_form_families, lp_only_families, pod_families]
    )
    def test_every_family_row(self, families):
        for topology, patterns in families(8):
            for matching in patterns:
                assert agree(_lp(topology, matching), _exact(topology, matching)), (
                    topology.name,
                    matching,
                )

    def test_degraded_fabrics_are_separate_cache_entries(self):
        n = 8
        matching = Matching.shift(n, 3)
        cache = ThroughputCache()
        variants = degraded_variants(ring(n, RATE), n)
        thetas = []
        for health, topology in variants:
            value = _exact(topology, matching, cache)
            assert agree(_lp(topology, matching), value), health
            thetas.append(value)
        # A capacity perturbation is a new fabric: no variant may be
        # served another's value.
        assert cache.stats().misses == len(variants)
        # Degradation must actually change the answers we compared.
        assert len(set(thetas)) >= 3

    @pytest.mark.parametrize(
        "pristine",
        [
            ring(8, RATE),
            ring(8, RATE, bidirectional=False),
            matched_topology(Matching.shift(8, 1), RATE),
        ],
        ids=["ring", "ring-unidirectional", "matched"],
    )
    def test_degraded_topologies_never_take_the_closed_form(self, pristine):
        """A degraded fabric drops its family metadata, so every
        pattern goes to pod blocks or the LP, never to a formula of the
        pristine graph."""
        patterns = [Matching.shift(8, k) for k in range(1, 8)]
        patterns += [Matching.xor_exchange(8, d) for d in (1, 2)]
        assert any(try_closed_form_theta(pristine, m) is not None for m in patterns)
        for health, topology in degraded_variants(pristine, 8):
            if health is None:
                continue
            for matching in patterns:
                assert try_closed_form_theta(topology, matching) is None, (
                    health.name,
                    matching,
                )

    def test_workload_phases_agree_and_hit_on_repeat(self):
        n = 8
        topology = ring(n, RATE)
        # Adjacent phases: same fabric, different full permutations.
        phases = [Matching.shift(n, k) for k in (1, 2, 3, 5, 7)]
        cache = ThroughputCache()
        first = [_exact(topology, m, cache) for m in phases]
        for matching, value in zip(phases, first):
            assert agree(_lp(topology, matching), value)
        again = [_exact(topology, m, cache) for m in phases]
        assert again == first
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (len(phases), len(phases))

    def test_repeat_solves_are_identical(self):
        """The cache and the disk store keep one value per pattern, so
        a re-solve must reproduce it bit for bit, flows included."""
        topology = ring(8, RATE)
        commodities = commodities_from_matching(Matching.shift(8, 2))
        first = max_concurrent_flow(topology, commodities, RATE, return_flows=True)
        again = max_concurrent_flow(topology, commodities, RATE, return_flows=True)
        assert first == again

    def test_return_flows_parity(self):
        n = 6
        topology = ring(n, RATE)
        commodities = commodities_from_matching(Matching.shift(n, 2))
        with_flows = max_concurrent_flow(
            topology, commodities, RATE, return_flows=True
        )
        plain = max_concurrent_flow(topology, commodities, RATE)
        assert with_flows.theta == plain.theta
        assert len(with_flows.edge_flows) == len(commodities)
        assert agree(with_flows.theta, _exact(topology, Matching.shift(n, 2)))

    def test_screens_match_the_lp(self):
        n = 6
        topology = ring(n, RATE)
        assert max_concurrent_flow(topology, (), RATE).theta == float("inf")
        assert _exact(topology, Matching(n, [])) == float("inf")
        # Disconnected commodity: a sparse matched fabric has no route
        # between the pair, so the LP and the exact route screen to 0.0.
        sparse = matched_topology(Matching(4, [(0, 1), (2, 3)]), RATE)
        assert max_concurrent_flow(sparse, (Commodity(0, 2),), RATE).theta == 0.0
        assert _exact(sparse, Matching(4, [(0, 2)])) == 0.0

    def test_mixed_demands_follow_the_demand_scale_law(self):
        """Doubling every demand halves theta, on the certified LP."""
        topology = ring(6, RATE)
        demands = ((0, 3, 1.0), (1, 4, 0.25), (5, 2, 2.5))
        base = certified_theta(
            topology, tuple(Commodity(s, d, w) for s, d, w in demands)
        )
        doubled = certified_theta(
            topology, tuple(Commodity(s, d, 2 * w) for s, d, w in demands)
        )
        assert agree(doubled, base / 2)


#: Ring sizes for the XOR form, powers of two and not.
RING_SIZES = (4, 6, 8, 12, 16, 24, 40, 48, 64, 96, 128)


def _xor_certificate(topology, matching: Matching, theta: float) -> ThetaCertificate:
    """The closed_forms derivation of the ring XOR-d form as a certificate.

    Lower bound: every pair on its direct route at ``theta`` (``+d``
    clockwise and ``-d`` counter-clockwise on the bidirectional ring,
    clockwise on the one-way ring).  Upper bound: unit length on the two
    edges leaving the window ``[d, 3d)`` (bidirectional) or on every
    edge (one-way).
    """
    n = matching.n
    d = matching.dst_of(0)
    bidirectional = topology.metadata["bidirectional"]
    paths = []
    for src, dst in matching:
        step = 1 if dst > src or not bidirectional else -1
        hops = (dst - src) * step % n
        nodes = tuple((src + step * h) % n for h in range(hops + 1))
        paths.append(((nodes, theta),))
    if bidirectional:
        edges = ((3 * d - 1, 3 * d), (d, d - 1))
    else:
        edges = tuple((i, (i + 1) % n) for i in range(n))
    return ThetaCertificate(
        theta, theta, tuple(paths), edges, (1.0,) * len(edges)
    )


class TestRingXorForm:
    """The ring's XOR-d form: ``c/d`` on the bidirectional ring while
    ``2d < n``, ``2c/n`` on the one-way ring, for powers of two only."""

    @pytest.mark.parametrize("bidirectional", [True, False], ids=["bi", "uni"])
    @pytest.mark.parametrize("n", RING_SIZES)
    def test_formula_is_the_certified_lp(self, n, bidirectional):
        topology = ring(n, RATE, bidirectional=bidirectional)
        for d in xor_distances(n):
            matching = Matching.xor_exchange(n, d)
            value = try_closed_form_theta(topology, matching)
            if d & (d - 1):
                assert value is None, (n, d)
                continue
            # d = n/2 is shift n/2: the shift form answers, not c/d.
            assert agree(value, _lp(topology, matching)), (n, d, value)

    @pytest.mark.parametrize("bidirectional", [True, False], ids=["bi", "uni"])
    @pytest.mark.parametrize("n", RING_SIZES)
    def test_certificate_brackets_the_formula(self, n, bidirectional):
        topology = ring(n, RATE, bidirectional=bidirectional)
        distances = [d for d in xor_distances(n) if not d & (d - 1) and 2 * d < n]
        assert distances
        for d in distances:
            matching = Matching.xor_exchange(n, d)
            theta = try_closed_form_theta(topology, matching)
            assert theta == (0.5 / d if bidirectional else 2.0 / n)
            lo, hi = verify_certificate(
                topology,
                commodities_from_matching(matching),
                RATE,
                _xor_certificate(topology, matching, theta),
            )
            assert lo * (1 - ROUNDING) <= theta <= hi * (1 + ROUNDING)
            assert agree(lo, theta) and agree(hi, theta), (n, d, lo, hi)


def _route_cases():
    pods = PodFabric(pod_sizes=(4, 4), bandwidth=RATE, uplinks_per_pod=2)
    return {
        "closed-form": (ring(8, RATE), Matching.shift(8, 1)),
        "pod-blocks": (pods.flat_topology(), Matching.shift(8, 3)),
        "lp": (full_mesh(8, RATE), Matching.shift(8, 3)),
    }


class TestOneTagForEveryRoute:
    @pytest.mark.parametrize("route", ["closed-form", "pod-blocks", "lp"])
    def test_every_route_stores_under_the_auto_tag(self, route):
        topology, matching = _route_cases()[route]
        cache = ThroughputCache()
        value = _exact(topology, matching, cache)
        assert agree(_lp(topology, matching), value)

        def recompute():
            raise AssertionError(f"{route}: no entry under {theta_tag(RATE)!r}")

        stored = cache.get_or_compute(
            topology, matching, recompute, tag=theta_tag(RATE)
        )
        assert stored == value
        assert cache.stats().misses == 1

    def test_bounds_keep_their_own_tags(self):
        topology, matching = _route_cases()["closed-form"]
        cache = ThroughputCache()
        for method in ("auto", "sp", "proxy"):
            compute_theta(topology, matching, RATE, method=method, cache=cache)
        # Three estimators, three entries; asking again is all hits.
        assert cache.stats().misses == 3
        compute_theta(topology, matching, RATE, cache=cache)
        assert cache.stats().misses == 3
