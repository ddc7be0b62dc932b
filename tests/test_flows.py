"""Maximum concurrent flow: exact LP, closed forms, proxies, routing."""

import math

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flows import (
    Commodity,
    ThroughputCache,
    commodities_from_matching,
    commodities_from_matrix,
    compute_theta,
    default_cache,
    detect_uniform_shift,
    hop_distances,
    max_concurrent_flow,
    path_length,
    PathLengthRule,
    ring_shift_theta,
    route_k_shortest_split,
    route_shortest_paths,
    theta_lower_bound_shortest_path,
    theta_proxy,
    theta_upper_bound_flowhops,
    theta_upper_bound_ports,
    try_closed_form_theta,
)
from repro.flows.closed_forms import rate_factor
from repro.matching import Matching
from repro.topology import Topology, dgx, full_mesh, hypercube, matched_topology, ring, star
from repro.units import Gbps

B = Gbps(800)


class TestCommodity:
    def test_rejects_self_loop(self):
        with pytest.raises(FlowError):
            Commodity(1, 1)

    def test_rejects_non_positive_demand(self):
        with pytest.raises(FlowError):
            Commodity(0, 1, 0.0)

    def test_from_matching(self):
        commodities = commodities_from_matching(Matching.shift(4, 1))
        assert len(commodities) == 4
        assert all(c.demand == 1.0 for c in commodities)

    def test_from_matrix(self):
        matrix = np.array([[0, 2.0], [1.0, 0]])
        commodities = commodities_from_matrix(matrix)
        demands = {(c.src, c.dst): c.demand for c in commodities}
        assert demands == {(0, 1): 1.0, (1, 0): 0.5}

    def test_from_matrix_validation(self):
        with pytest.raises(FlowError):
            commodities_from_matrix(np.ones((2, 3)))
        with pytest.raises(FlowError):
            commodities_from_matrix(np.array([[0, -1.0], [0, 0]]))

    def test_from_zero_matrix(self):
        assert commodities_from_matrix(np.zeros((3, 3))) == ()


class TestExactLP:
    def test_no_commodities_is_infinite(self):
        result = max_concurrent_flow(ring(4, B), [], B)
        assert math.isinf(result.theta)

    def test_disconnected_is_zero(self):
        t = Topology(4, [(0, 1, B)])
        result = max_concurrent_flow(t, [Commodity(2, 3)], B)
        assert result.theta == 0.0

    def test_single_dedicated_link(self):
        t = Topology(2, [(0, 1, B)])
        result = max_concurrent_flow(t, [Commodity(0, 1)], B)
        assert result.theta == pytest.approx(1.0)

    def test_shared_link_halves(self):
        # two commodities share one relay path segment
        t = Topology(3, [(0, 2, B), (1, 2, B), (2, 0, 0.5 * B)])
        result = max_concurrent_flow(
            t, [Commodity(1, 0)], B
        )
        assert result.theta == pytest.approx(0.5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bidirectional_ring_matches_formula(self, k):
        n = 8
        t = ring(n, B)
        theta = max_concurrent_flow(
            t, commodities_from_matching(Matching.shift(n, k)), B
        ).theta
        assert theta == pytest.approx(0.5 * n / (k * (n - k)), rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_directed_ring_matches_formula(self, k):
        n = 8
        t = ring(n, B, bidirectional=False)
        theta = max_concurrent_flow(
            t, commodities_from_matching(Matching.shift(n, k)), B
        ).theta
        assert theta == pytest.approx(1.0 / k, rel=1e-6)

    def test_matched_topology_is_one(self):
        m = Matching.xor_exchange(8, 2)
        theta = max_concurrent_flow(
            matched_topology(m, B), commodities_from_matching(m), B
        ).theta
        assert theta == pytest.approx(1.0)

    def test_star_is_nonblocking(self):
        theta = max_concurrent_flow(
            star(6, B), commodities_from_matching(Matching.shift(6, 2)), B
        ).theta
        assert theta == pytest.approx(1.0)

    def test_dgx_is_nonblocking(self):
        theta = max_concurrent_flow(
            dgx(6, B, 3), commodities_from_matching(Matching.shift(6, 1)), B
        ).theta
        assert theta == pytest.approx(1.0)

    def test_return_flows_conserve(self):
        n = 6
        t = ring(n, B)
        commodities = commodities_from_matching(Matching.shift(n, 2))
        result = max_concurrent_flow(t, commodities, B, return_flows=True)
        assert result.edge_flows is not None
        for commodity, flows in zip(commodities, result.edge_flows):
            out_src = sum(f for (u, _), f in flows.items() if u == commodity.src)
            in_src = sum(f for (_, v), f in flows.items() if v == commodity.src)
            assert out_src - in_src == pytest.approx(result.theta, rel=1e-6)

    def test_weighted_demands_scale(self):
        n = 6
        t = ring(n, B)
        heavy = [Commodity(i, (i + 1) % n, 2.0) for i in range(n)]
        light = commodities_from_matching(Matching.shift(n, 1))
        theta_heavy = max_concurrent_flow(t, heavy, B).theta
        theta_light = max_concurrent_flow(t, light, B).theta
        assert theta_heavy == pytest.approx(theta_light / 2.0, rel=1e-6)

    def test_invalid_reference_rate(self):
        with pytest.raises(FlowError):
            max_concurrent_flow(ring(4, B), [Commodity(0, 1)], 0.0)


class TestClosedForms:
    def test_detect_uniform_shift(self):
        assert detect_uniform_shift(Matching.shift(8, 3)) == 3
        assert detect_uniform_shift(Matching.xor_exchange(8, 3)) is None
        assert detect_uniform_shift(Matching(8, [(0, 1)])) is None
        # xor with distance 4 on n=8 happens to be shift 4
        assert detect_uniform_shift(Matching.xor_exchange(8, 4)) == 4

    def test_ring_shift_theta_values(self):
        assert ring_shift_theta(64, 1, 0.5, True) == pytest.approx(64 / 126)
        assert ring_shift_theta(64, 32, 0.5, True) == pytest.approx(
            0.5 * 64 / (32 * 32)
        )
        assert ring_shift_theta(64, 4, 1.0, False) == pytest.approx(0.25)

    def test_closed_form_dispatch(self):
        t = ring(8, B)
        assert try_closed_form_theta(t, Matching.shift(8, 2)) == pytest.approx(
            0.5 * 8 / (2 * 6)
        )
        assert try_closed_form_theta(t, Matching.xor_exchange(8, 2)) == 0.25
        assert try_closed_form_theta(t, Matching.xor_exchange(8, 3)) is None

    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_coprime_ring_closed_form_matches_lp(self, bidirectional, k):
        from repro.topology import coprime_rings

        t = coprime_rings(8, (3,), B, bidirectional=bidirectional)
        m = Matching.shift(8, k)
        lp = max_concurrent_flow(t, commodities_from_matching(m), B).theta
        cf = try_closed_form_theta(t, m)
        assert cf == pytest.approx(lp, rel=1e-6)

    def test_rate_factor_rescales_to_the_asked_reference(self):
        t = ring(8, B)
        assert rate_factor(t, B) == 1.0
        assert rate_factor(t, B / 4) == 4.0
        bare = Topology(4, list(ring(4, B).edges()), name="bare")  # no metadata
        assert rate_factor(bare, B / 4) == 1.0
        # compute_theta applies it to the formula's value.
        m = Matching.shift(8, 3)
        assert compute_theta(t, m, B / 4, cache=None) == (
            try_closed_form_theta(t, m) * 4.0
        )

    def test_hypercube_closed_form(self):
        t = hypercube(8, B)
        value = try_closed_form_theta(t, Matching.xor_exchange(8, 2))
        assert value == pytest.approx(1 / 3)
        assert try_closed_form_theta(t, Matching.xor_exchange(8, 3)) is None

    def test_closed_form_agrees_with_lp_on_hypercube(self):
        t = hypercube(8, B)
        m = Matching.xor_exchange(8, 4)
        lp = max_concurrent_flow(t, commodities_from_matching(m), B).theta
        cf = try_closed_form_theta(t, m)
        assert lp == pytest.approx(cf, rel=1e-6)


class TestBounds:
    @pytest.mark.parametrize(
        "matching",
        [
            Matching.shift(8, 1),
            Matching.shift(8, 3),
            Matching.xor_exchange(8, 2),
            Matching(8, [(0, 4), (1, 5)]),
        ],
    )
    def test_sandwich(self, matching):
        t = ring(8, B)
        lower = theta_lower_bound_shortest_path(t, matching, B)
        exact = max_concurrent_flow(
            t, commodities_from_matching(matching), B
        ).theta
        upper = theta_proxy(t, matching, B)
        assert lower <= exact * (1 + 1e-9)
        assert exact <= upper * (1 + 1e-9)

    def test_port_bound_full_mesh(self):
        t = full_mesh(5, B)
        bound = theta_upper_bound_ports(t, Matching.shift(5, 1), B)
        assert bound == pytest.approx(1.0)

    def test_flowhop_bound_ring(self):
        t = ring(8, B)
        bound = theta_upper_bound_flowhops(t, Matching.shift(8, 1), B)
        # total capacity 8b, flow-hops 8 -> bound 1.0
        assert bound == pytest.approx(1.0)

    def test_empty_demand_bounds(self):
        t = ring(4, B)
        assert math.isinf(theta_upper_bound_ports(t, [], B))
        assert math.isinf(theta_lower_bound_shortest_path(t, [], B))

    def test_disconnected_lower_bound_zero(self):
        t = Topology(4, [(0, 1, B)])
        assert theta_lower_bound_shortest_path(t, Matching(4, [(2, 3)]), B) == 0.0


class TestRouting:
    def test_path_length_rules(self):
        t = ring(8, B)
        m = Matching.shift(8, 3)
        assert path_length(t, m, PathLengthRule.MAX_PAIR_HOPS) == 3.0
        assert path_length(t, m, PathLengthRule.MEAN_PAIR_HOPS) == 3.0
        assert path_length(t, m, PathLengthRule.SUM_PAIR_HOPS) == 24.0

    def test_path_length_empty(self):
        assert path_length(ring(4, B), Matching.identity(4)) == 0.0

    def test_hop_distances(self):
        t = ring(8, B)
        distances = hop_distances(t, Matching.shift(8, 3))
        assert distances[(0, 3)] == 3
        assert distances[(6, 1)] == 3

    def test_shortest_path_routing_loads(self):
        t = ring(6, B)
        commodities = commodities_from_matching(Matching.shift(6, 1))
        result = route_shortest_paths(t, commodities, B)
        assert result.theta == pytest.approx(0.5)  # all clockwise, cap b/2
        assert result.max_load() == pytest.approx(1.0)

    def test_k_shortest_split_improves_on_ring_exchange(self):
        t = ring(6, B)
        m = Matching(6, [(0, 3), (3, 0)])  # antipodal exchange
        commodities = commodities_from_matching(m)
        single = route_shortest_paths(t, commodities, B).theta
        split = route_k_shortest_split(t, commodities, B, k=2).theta
        assert split >= single - 1e-12

    def test_k_validation(self):
        with pytest.raises(FlowError):
            route_k_shortest_split(ring(4, B), [Commodity(0, 1)], B, k=0)


class TestComputeTheta:
    def test_auto_uses_closed_form(self):
        cache = ThroughputCache()
        t = ring(8, B)
        value = compute_theta(t, Matching.shift(8, 2), cache=cache)
        assert value == pytest.approx(0.5 * 8 / (2 * 6))

    def test_cache_hits(self):
        cache = ThroughputCache()
        t = ring(8, B)
        m = Matching.xor_exchange(8, 1)
        first = compute_theta(t, m, cache=cache)
        assert cache.misses == 1
        second = compute_theta(t, m, cache=cache)
        assert cache.hits == 1
        assert first == second

    def test_cache_distinguishes_methods(self):
        cache = ThroughputCache()
        t = ring(8, B)
        m = Matching.shift(8, 2)
        compute_theta(t, m, method="auto", cache=cache)
        compute_theta(t, m, method="sp", cache=cache)
        assert len(cache) == 2

    def test_reference_rate_from_metadata(self):
        t = ring(8, B)
        assert compute_theta(t, Matching.shift(8, 1), cache=None) > 0

    def test_missing_reference_rate_raises(self):
        t = Topology(4, [(0, 1, B), (1, 2, B), (2, 3, B), (3, 0, B)])
        with pytest.raises(FlowError, match="reference_rate"):
            compute_theta(t, Matching.shift(4, 1), cache=None)

    def test_unknown_method(self):
        with pytest.raises(FlowError, match="unknown theta method"):
            compute_theta(ring(4, B), Matching.shift(4, 1), method="magic")

    def test_exact_theta_without_closed_form_is_the_lp(self):
        t, m = ring(8, B), Matching.xor_exchange(8, 3)
        assert try_closed_form_theta(t, m) is None
        assert compute_theta(t, m, cache=None) == max_concurrent_flow(
            t, commodities_from_matching(m), B
        ).theta

    def test_empty_matching_infinite(self):
        value = compute_theta(ring(4, B), Matching.identity(4), cache=None)
        assert math.isinf(value)
