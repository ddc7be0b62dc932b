"""Cross-module invariants that anchor the whole reproduction."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CostParameters,
    Schedule,
    StepCost,
    evaluate_schedule,
)
from repro.exceptions import ScheduleError
from repro.flows import compute_theta
from repro.matching import Matching
from repro.topology import matched_topology
from repro.units import Gbps, ns, us

B = Gbps(800)
PARAMS = CostParameters(
    alpha=ns(100), bandwidth=B, delta=ns(100), reconfiguration_delay=us(7)
)


class TestBreakdownInvariant:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9),
                st.floats(min_value=1e-3, max_value=1.0),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=8),
    )
    @settings(deadline=None, max_examples=80)
    def test_terms_always_sum_to_total(self, raw_costs, bits):
        """For any decisions and any step facts, the cost breakdown's
        four terms sum exactly to the total (Eq. 7 additivity)."""
        costs = tuple(
            StepCost(volume=v, theta=t, hops=float(h)) for v, t, h in raw_costs
        )
        bits = (bits * len(costs))[: len(costs)]
        result = evaluate_schedule(costs, Schedule.from_bits(bits), PARAMS)
        assert result.total == pytest.approx(
            result.latency_term
            + result.propagation_term
            + result.bandwidth_term
            + result.reconfiguration_term,
            rel=1e-12,
        )
        assert result.total == pytest.approx(
            sum(result.per_step)
            + result.n_reconfigurations * PARAMS.reconfiguration_delay,
            rel=1e-12,
        )


class TestFabricFlowConsistency:
    def test_switch_topology_serves_its_matching_at_full_rate(self):
        """Whatever matching the circuits realize, the matched topology
        routes exactly that matching with theta == 1."""
        for matching in (
            Matching.shift(8, 3),
            Matching.xor_exchange(8, 4),
            Matching(8, [(0, 5), (5, 0), (2, 7)]),
        ):
            circuits = matched_topology(matching, B)
            theta = compute_theta(circuits, matching, reference_rate=B, cache=None)
            assert theta == pytest.approx(1.0)

    def test_switch_cannot_serve_other_patterns(self):
        circuits = matched_topology(Matching.shift(8, 1), B)
        other = Matching.shift(8, 3)
        theta = compute_theta(circuits, other, reference_rate=B, cache=None)
        # only multi-hop relaying along the shift-1 cycle remains
        assert theta == pytest.approx(1.0 / 3.0)


class TestInfeasibilityPropagation:
    def test_all_paths_infeasible_still_reports(self):
        costs = (StepCost(volume=1e6, theta=0.0, hops=math.inf),)
        schedule = Schedule.static(1)
        result = evaluate_schedule(costs, schedule, PARAMS)
        assert math.isinf(result.total)

    def test_pool_with_unreachable_steps_raises(self):
        from repro.collectives import make_collective
        from repro.core import optimize_pool_schedule
        from repro.topology import Topology

        collective = make_collective("alltoall", 4, 1e6)
        # A topology with no edges between most ranks: even the matched
        # state is reachable, so the pool DP should still find a
        # schedule (matched every step) rather than raise.
        sparse = Topology(4, [(0, 1, B)])
        result = optimize_pool_schedule(collective, [sparse], PARAMS)
        assert all(d.is_matched for d in result.decisions)


class TestEq7Encoding:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_z_variables_equal_and_of_consecutive_x(self, length):
        """The paper's z_i = x_i AND x_{i-1} encoding, checked against
        the reconfiguration counter for every bit pattern."""
        from repro.core.schedule import count_reconfigurations

        for bits in itertools.product([0, 1], repeat=length):
            schedule = Schedule.from_bits(bits)
            x = [1] + list(bits)  # x_0 = 1
            expected = sum(1 - (x[i] & x[i - 1]) for i in range(1, length + 1))
            assert count_reconfigurations(schedule.decisions) == expected

    def test_schedule_from_bits_validation(self):
        with pytest.raises(ScheduleError):
            Schedule.from_bits([])
