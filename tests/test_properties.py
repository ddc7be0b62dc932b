"""Property-based tests (hypothesis) on core data structures and
invariants: matchings, BvN, concurrent flow bounds, and the DP."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bvn import decompose_demand, reconstruct
from repro.core import (
    CostParameters,
    Schedule,
    StepCost,
    evaluate_schedule,
    optimize_schedule,
    static_cost,
    bvn_cost,
)
from repro.core.schedule import count_reconfigurations
from repro.flows import (
    commodities_from_matching,
    max_concurrent_flow,
    theta_lower_bound_shortest_path,
    theta_proxy,
)
from repro.matching import Matching
from repro.topology import ring
from repro.units import Gbps

B = Gbps(800)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def matchings(draw, max_n=10):
    """Random partial matchings via partial random injections."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    size = draw(st.integers(min_value=0, max_value=n))
    sources = draw(st.permutations(range(n)))
    destinations = draw(st.permutations(range(n)))
    pairs = [
        (s, d)
        for s, d in zip(sources[:size], destinations[:size])
        if s != d
    ]
    return Matching(n, pairs)


@st.composite
def step_cost_lists(draw):
    n_steps = draw(st.integers(min_value=1, max_value=10))
    costs = []
    for _ in range(n_steps):
        volume = draw(st.floats(min_value=0.0, max_value=1e10))
        theta = draw(st.floats(min_value=1e-3, max_value=1.0))
        hops = draw(st.integers(min_value=1, max_value=32))
        costs.append(StepCost(volume=volume, theta=theta, hops=float(hops)))
    return tuple(costs)


@st.composite
def cost_parameters(draw):
    return CostParameters(
        alpha=draw(st.floats(min_value=0.0, max_value=1e-3)),
        bandwidth=B,
        delta=draw(st.floats(min_value=0.0, max_value=1e-5)),
        reconfiguration_delay=draw(st.floats(min_value=0.0, max_value=1e-1)),
    )


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------


class TestMatchingProperties:
    @given(matchings())
    def test_inverse_is_involution(self, m):
        assert m.inverse().inverse() == m

    @given(matchings())
    def test_matrix_row_col_sums_at_most_one(self, m):
        matrix = m.matrix()
        assert (matrix.sum(axis=0) <= 1).all()
        assert (matrix.sum(axis=1) <= 1).all()
        assert matrix.sum() == len(m)

    @given(matchings())
    def test_sources_destinations_consistent(self, m):
        assert {s for s, _ in m} == set(m.sources)
        assert {d for _, d in m} == set(m.destinations)
        for src, dst in m:
            assert m.src_of(dst) == src

    @given(st.integers(min_value=2, max_value=12), st.integers())
    def test_shift_composition_group(self, n, k):
        a = Matching.shift(n, k % n)
        b = Matching.shift(n, 1)
        composed = a.compose(b)
        expected = Matching.shift(n, (k + 1) % n)
        if len(a) and len(expected):
            if (k + 1) % n != 0:
                assert composed == expected


# ---------------------------------------------------------------------------
# BvN
# ---------------------------------------------------------------------------


class TestBvNProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=10.0),
                st.integers(min_value=1, max_value=7),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(deadline=None)
    def test_decompose_reconstructs_shift_sums(self, weighted_shifts):
        n = 8
        matrix = np.zeros((n, n))
        for weight, shift in weighted_shifts:
            matrix += weight * Matching.shift(n, shift).matrix()
        terms = decompose_demand(matrix)
        rebuilt = reconstruct(terms, n)
        np.testing.assert_allclose(rebuilt, matrix, rtol=1e-6, atol=1e-9)

    @given(matchings(max_n=8), st.floats(min_value=0.1, max_value=5.0))
    def test_single_matching_decomposes_to_itself(self, m, weight):
        if len(m) == 0:
            return
        matrix = weight * m.matrix()
        terms = decompose_demand(matrix)
        assert len(terms) == 1
        assert terms[0].matching == m
        assert terms[0].weight == pytest.approx(weight)


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------


class TestFlowProperties:
    @given(matchings(max_n=8), st.booleans())
    @settings(deadline=None, max_examples=25)
    def test_bounds_sandwich_lp(self, m, bidirectional):
        if len(m) == 0:
            return
        topology = ring(m.n, B, bidirectional=bidirectional)
        if not topology.supports(m):
            return
        exact = max_concurrent_flow(topology, commodities_from_matching(m), B).theta
        lower = theta_lower_bound_shortest_path(topology, m, B)
        upper = theta_proxy(topology, m, B)
        assert lower <= exact * (1 + 1e-6)
        assert exact <= upper * (1 + 1e-6)

    @given(matchings(max_n=8))
    @settings(deadline=None, max_examples=25)
    def test_capacity_scaling_scales_theta(self, m):
        if len(m) == 0:
            return
        topology = ring(m.n, B)
        doubled = topology.scaled(2.0)
        commodities = commodities_from_matching(m)
        base = max_concurrent_flow(topology, commodities, B).theta
        scaled = max_concurrent_flow(doubled, commodities, B).theta
        assert scaled == pytest.approx(2 * base, rel=1e-6)


# ---------------------------------------------------------------------------
# schedules / DP
# ---------------------------------------------------------------------------


class TestScheduleProperties:
    @given(step_cost_lists(), cost_parameters())
    @settings(deadline=None)
    def test_dp_not_worse_than_pure_strategies(self, costs, params):
        opt = optimize_schedule(costs, params).cost.total
        assert opt <= static_cost(costs, params).total * (1 + 1e-12) + 1e-18
        assert opt <= bvn_cost(costs, params).total * (1 + 1e-12) + 1e-18

    @given(step_cost_lists(), cost_parameters())
    @settings(deadline=None, max_examples=30)
    def test_dp_matches_brute_force_small(self, costs, params):
        if len(costs) > 8:
            return
        best = min(
            evaluate_schedule(costs, Schedule.from_bits(bits), params).total
            for bits in itertools.product([0, 1], repeat=len(costs))
        )
        opt = optimize_schedule(costs, params).cost.total
        assert opt == pytest.approx(best, rel=1e-9, abs=1e-18)

    @given(step_cost_lists(), cost_parameters(), st.floats(min_value=1.1, max_value=10))
    @settings(deadline=None)
    def test_opt_monotone_in_alpha_r(self, costs, params, factor):
        cheap = optimize_schedule(costs, params).cost.total
        dearer = optimize_schedule(
            costs,
            params.with_reconfiguration_delay(params.reconfiguration_delay * factor),
        ).cost.total
        assert dearer >= cheap - 1e-18

    @given(step_cost_lists(), cost_parameters())
    @settings(deadline=None)
    def test_reconfiguration_count_consistency(self, costs, params):
        result = optimize_schedule(costs, params)
        assert result.cost.n_reconfigurations == count_reconfigurations(
            result.schedule.decisions
        )
        assert result.cost.reconfiguration_term == pytest.approx(
            result.cost.n_reconfigurations * params.reconfiguration_delay
        )

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=20))
    def test_reconfiguration_count_bounds(self, bits):
        schedule = Schedule.from_bits(bits)
        count = count_reconfigurations(schedule.decisions)
        assert 0 <= count <= len(bits)
        if all(bits):
            assert count == 0
