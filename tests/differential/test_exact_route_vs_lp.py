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
    agree,
    certified_theta,
    closed_form_families,
    degraded_variants,
    lp_only_families,
    pod_families,
)
from repro.flows import (
    Commodity,
    ThroughputCache,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    theta_tag,
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
