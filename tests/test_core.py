"""Core optimization: cost model, Eq. 7 evaluation, DP/ILP/pool solvers,
heuristics, overlap, and regime analysis."""

import itertools
import math

import pytest

from repro.collectives import make_collective
from repro.core import (
    CostParameters,
    Decision,
    Schedule,
    StepCost,
    best_of_both_cost,
    bvn_cost,
    crossover_to_static,
    evaluate_schedule,
    evaluate_schedule_with_overlap,
    evaluate_step_costs,
    greedy_sequential_schedule,
    optimize_pool_schedule,
    optimize_schedule,
    optimize_schedule_ilp,
    optimize_with_overlap,
    static_bvn_breakeven,
    static_cost,
    threshold_schedule,
)
from repro.core.schedule import count_reconfigurations
from repro.exceptions import ScheduleError
from repro.experiments import PaperConfig, panel_by_id, run_panel
from repro.fabric import PerPortReconfigurationDelay
from repro.flows import ThroughputCache
from repro.topology import coprime_rings, ring
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)


def params_with(alpha_r, alpha=ns(100), delta=ns(100)):
    return CostParameters(
        alpha=alpha, bandwidth=B, delta=delta, reconfiguration_delay=alpha_r
    )


class TestCostParameters:
    def test_beta_is_inverse_bandwidth(self):
        p = params_with(us(1))
        assert p.beta == pytest.approx(1 / B)

    def test_validation(self):
        with pytest.raises(ScheduleError):
            CostParameters(alpha=-1, bandwidth=B, delta=0, reconfiguration_delay=0)
        with pytest.raises(ScheduleError):
            CostParameters(alpha=0, bandwidth=0, delta=0, reconfiguration_delay=0)

    @pytest.mark.parametrize(
        "field", ["alpha", "bandwidth", "delta", "reconfiguration_delay"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_scalars_rejected(self, field, value):
        scalars = dict(alpha=0.0, bandwidth=B, delta=0.0, reconfiguration_delay=0.0)
        scalars[field] = value
        with pytest.raises(ScheduleError, match=f"{field} must be a finite number"):
            CostParameters(**scalars)

    def test_with_reconfiguration_delay(self):
        p = params_with(us(1)).with_reconfiguration_delay(us(5))
        assert p.reconfiguration_delay == pytest.approx(us(5))
        assert p.alpha == pytest.approx(ns(100))


class TestStepCost:
    def test_base_cost_formula(self):
        p = params_with(us(1))
        cost = StepCost(volume=MiB(1), theta=0.25, hops=4.0)
        expected = p.alpha + p.delta * 4 + p.beta * MiB(1) / 0.25
        assert cost.base_cost(p) == pytest.approx(expected)

    def test_matched_cost_formula(self):
        p = params_with(us(1))
        cost = StepCost(volume=MiB(1), theta=0.25, hops=4.0)
        assert cost.matched_cost(p) == pytest.approx(
            p.alpha + p.delta + p.beta * MiB(1)
        )

    def test_disconnected_base_is_infinite(self):
        p = params_with(us(1))
        assert math.isinf(StepCost(volume=1.0, theta=0.0, hops=math.inf).base_cost(p))

    def test_zero_volume_step(self):
        p = params_with(us(1))
        cost = StepCost(volume=0.0, theta=math.inf, hops=2.0)
        assert cost.base_cost(p) == pytest.approx(p.alpha + 2 * p.delta)


class TestEvaluateStepCosts:
    def test_matches_closed_form_on_ring(self):
        n = 8
        collective = make_collective("alltoall", n, MiB(1))
        p = params_with(us(1))
        costs = evaluate_step_costs(collective, ring(n, B), p)
        for k, cost in enumerate(costs, start=1):
            assert cost.theta == pytest.approx(0.5 * n / (k * (n - k)))
            assert cost.hops == min(k, n - k)

    def test_rank_mismatch_rejected(self):
        collective = make_collective("alltoall", 8, MiB(1))
        with pytest.raises(ScheduleError):
            evaluate_step_costs(collective, ring(16, B), params_with(us(1)))


class TestScheduleObjects:
    def test_factories(self):
        assert Schedule.static(3).is_static()
        assert Schedule.always_reconfigure(3).is_always_reconfigure()
        assert str(Schedule.from_bits([1, 0, 1])) == "GMG"

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule(())

    def test_count_reconfigurations(self):
        D = Decision
        assert count_reconfigurations([D.BASE, D.BASE, D.BASE]) == 0
        assert count_reconfigurations([D.MATCHED] * 3) == 3
        assert count_reconfigurations([D.BASE, D.MATCHED, D.BASE]) == 2
        assert count_reconfigurations([D.MATCHED, D.BASE, D.BASE]) == 2

    def test_evaluate_matches_manual_sum(self):
        p = params_with(us(1))
        costs = (
            StepCost(volume=MiB(1), theta=0.5, hops=2.0),
            StepCost(volume=MiB(2), theta=0.25, hops=4.0),
        )
        schedule = Schedule.from_bits([1, 0])  # base then matched
        result = evaluate_schedule(costs, schedule, p)
        expected = (
            costs[0].base_cost(p) + costs[1].matched_cost(p) + p.reconfiguration_delay
        )
        assert result.total == pytest.approx(expected)
        assert result.n_reconfigurations == 1

    def test_breakdown_sums_to_total(self):
        p = params_with(us(3))
        costs = tuple(
            StepCost(volume=MiB(1) * (i + 1), theta=0.5 / (i + 1), hops=i + 1.0)
            for i in range(4)
        )
        for bits in itertools.product([0, 1], repeat=4):
            result = evaluate_schedule(costs, Schedule.from_bits(bits), p)
            assert result.total == pytest.approx(
                result.latency_term
                + result.propagation_term
                + result.bandwidth_term
                + result.reconfiguration_term
            )

    def test_length_mismatch(self):
        with pytest.raises(ScheduleError):
            evaluate_schedule(
                (StepCost(1.0, 1.0, 1.0),), Schedule.static(2), params_with(0)
            )


class TestOptimizers:
    @pytest.fixture
    def rhd_costs(self):
        collective = make_collective("allreduce_recursive_doubling", 16, MiB(4))
        return evaluate_step_costs(collective, ring(16, B), params_with(us(1)))

    @pytest.mark.parametrize("alpha_r", [ns(100), us(1), us(30), us(1000), 0.1])
    def test_dp_equals_brute_force(self, rhd_costs, alpha_r):
        p = params_with(alpha_r)
        best = min(
            evaluate_schedule(rhd_costs, Schedule.from_bits(bits), p).total
            for bits in itertools.product([0, 1], repeat=len(rhd_costs))
        )
        result = optimize_schedule(rhd_costs, p)
        assert result.cost.total == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("alpha_r", [ns(100), us(1), us(30), us(1000), 0.1])
    def test_dp_equals_ilp(self, rhd_costs, alpha_r):
        p = params_with(alpha_r)
        dp = optimize_schedule(rhd_costs, p)
        ilp = optimize_schedule_ilp(rhd_costs, p)
        assert dp.cost.total == pytest.approx(ilp.cost.total, rel=1e-9)

    def test_opt_never_worse_than_baselines(self, rhd_costs):
        for alpha_r in (ns(10), us(1), us(100), 0.01):
            p = params_with(alpha_r)
            opt = optimize_schedule(rhd_costs, p).cost.total
            assert opt <= static_cost(rhd_costs, p).total + 1e-15
            assert opt <= bvn_cost(rhd_costs, p).total + 1e-15

    def test_extreme_regimes(self, rhd_costs):
        # enormous delay -> static; zero delay -> always reconfigure
        assert optimize_schedule(rhd_costs, params_with(10.0)).schedule.is_static()
        assert optimize_schedule(
            rhd_costs, params_with(0.0)
        ).schedule.is_always_reconfigure()

    def test_infeasible_base_forces_matched(self):
        p = params_with(us(1))
        costs = (StepCost(volume=MiB(1), theta=0.0, hops=math.inf),)
        result = optimize_schedule(costs, p)
        assert result.schedule.decisions[0] is Decision.MATCHED
        ilp = optimize_schedule_ilp(costs, p)
        assert ilp.schedule.decisions[0] is Decision.MATCHED

    def test_single_step(self):
        p = params_with(us(1))
        costs = (StepCost(volume=KiB(1), theta=0.5, hops=1.0),)
        result = optimize_schedule(costs, p)
        assert result.schedule.is_static()  # tiny message: not worth it

    def test_ties_prefer_base(self):
        # theta = 1 over one hop prices a base step exactly like its
        # matched step, and alpha_r = 0 makes every transition free.
        costs = tuple(StepCost(volume=MiB(1), theta=1.0, hops=1.0) for _ in range(4))
        p = params_with(0.0)
        assert optimize_schedule(costs, p).schedule.is_static()
        assert optimize_with_overlap(costs, p, 0.0).schedule.is_static()


class TestBaselines:
    def test_static_ignores_alpha_r(self):
        costs = (StepCost(volume=MiB(1), theta=0.5, hops=2.0),)
        a = static_cost(costs, params_with(us(1)))
        b = static_cost(costs, params_with(us(1000)))
        assert a.total == pytest.approx(b.total)
        assert a.n_reconfigurations == 0

    def test_bvn_linear_in_alpha_r(self):
        costs = tuple(StepCost(volume=MiB(1), theta=0.5, hops=2.0) for _ in range(5))
        lo = bvn_cost(costs, params_with(us(1))).total
        hi = bvn_cost(costs, params_with(us(2))).total
        assert hi - lo == pytest.approx(5 * us(1))

    def test_best_of_both(self):
        costs = (StepCost(volume=MiB(64), theta=0.05, hops=8.0),)
        cheap = params_with(ns(10))
        assert best_of_both_cost(costs, cheap).total == pytest.approx(
            bvn_cost(costs, cheap).total
        )
        dear = params_with(1.0)
        assert best_of_both_cost(costs, dear).total == pytest.approx(
            static_cost(costs, dear).total
        )


class TestHeuristics:
    @pytest.mark.parametrize("alpha_r", [ns(100), us(1), us(30), us(1000)])
    def test_heuristics_upper_bound_opt(self, alpha_r):
        collective = make_collective("allreduce_swing", 16, MiB(4))
        costs = evaluate_step_costs(collective, ring(16, B), params_with(us(1)))
        p = params_with(alpha_r)
        opt = optimize_schedule(costs, p).cost.total
        for heuristic in (threshold_schedule, greedy_sequential_schedule):
            value = evaluate_schedule(costs, heuristic(costs, p), p).total
            assert value >= opt - 1e-18
            # heuristics should stay within 2x of optimal on these inputs
            assert value <= 2 * opt

    def test_threshold_extremes(self):
        costs = (StepCost(volume=MiB(64), theta=0.01, hops=8.0),)
        assert threshold_schedule(costs, params_with(ns(1))).is_always_reconfigure()
        assert threshold_schedule(costs, params_with(10.0)).is_static()


class TestPoolOptimizer:
    def test_pool_never_worse_than_two_state(self):
        collective = make_collective("allreduce_recursive_doubling", 16, MiB(4))
        topology = ring(16, B)
        p = params_with(us(10))
        costs = evaluate_step_costs(collective, topology, p)
        two_state = optimize_schedule(costs, p).cost.total
        pool = optimize_pool_schedule(collective, [topology], p)
        assert pool.total <= two_state + 1e-15

    def test_identical_consecutive_matchings_free(self):
        # ring allreduce repeats shift-1 every step: after one
        # reconfiguration the matched topology persists for free.
        collective = make_collective("allreduce_ring", 8, MiB(64))
        topology = ring(8, B)
        p = params_with(us(10))
        pool = optimize_pool_schedule(collective, [topology], p)
        assert pool.n_reconfigurations <= 1

    def test_multi_base_pool_helps_alltoall(self):
        collective = make_collective("alltoall", 8, MiB(16))
        base1 = ring(8, B)
        base3 = coprime_rings(8, (3,), B, bidirectional=True)
        p = params_with(us(50))
        single = optimize_pool_schedule(collective, [base1], p)
        double = optimize_pool_schedule(collective, [base1, base3], p)
        assert double.total <= single.total + 1e-15

    def test_per_port_delay_model(self):
        collective = make_collective("allreduce_recursive_doubling", 8, MiB(1))
        topology = ring(8, B)
        p = params_with(us(10))
        model = PerPortReconfigurationDelay(base=us(1), per_port=us(1))
        result = optimize_pool_schedule(
            collective, [topology], p, reconfiguration_model=model
        )
        assert result.total > 0

    def test_empty_pool_rejected(self):
        collective = make_collective("alltoall", 4, MiB(1))
        with pytest.raises(ScheduleError):
            optimize_pool_schedule(collective, [], params_with(us(1)))


class TestOverlap:
    def test_big_compute_hides_reconfiguration(self):
        costs = tuple(StepCost(volume=MiB(8), theta=0.1, hops=4.0) for _ in range(4))
        p = params_with(us(10))
        compute = us(50)  # far larger than alpha_r
        overlapped = optimize_with_overlap(costs, p, compute)
        serial = evaluate_schedule_with_overlap(
            costs, overlapped.schedule, p, compute, overlap=False
        )
        assert overlapped.cost.total <= serial.total
        # with reconfiguration fully hidden, matched everywhere wins
        assert overlapped.schedule.is_always_reconfigure()

    def test_zero_compute_matches_plain_dp(self):
        collective = make_collective("allreduce_swing", 8, MiB(4))
        costs = evaluate_step_costs(collective, ring(8, B), params_with(us(1)))
        p = params_with(us(5))
        plain = optimize_schedule(costs, p)
        overlapped = optimize_with_overlap(costs, p, 0.0)
        assert overlapped.cost.total == pytest.approx(plain.cost.total)
        assert overlapped.schedule.decisions == plain.schedule.decisions

    def test_dp_equals_brute_force(self):
        collective = make_collective("allreduce_recursive_doubling", 16, KiB(256))
        p = params_with(us(2))
        costs = evaluate_step_costs(collective, ring(16, B), p)
        # Windows on both sides of alpha_r: some hide a reconfiguration
        # fully, some only in part.  The optimum is mixed and differs
        # from the serial DP's.
        compute = [us(t) for t in (0.4, 3.2, 0.2, 4.8, 1.2, 2.0, 0.0, 3.6)]
        result = optimize_with_overlap(costs, p, compute)
        assert str(result.schedule) != str(optimize_schedule(costs, p).schedule)
        best = min(
            evaluate_schedule_with_overlap(
                costs, Schedule.from_bits(bits), p, compute
            ).total
            for bits in itertools.product((0, 1), repeat=len(costs))
        )
        assert result.cost.total == pytest.approx(best, rel=1e-12)

    def test_compute_time_validation(self):
        costs = (StepCost(volume=1.0, theta=1.0, hops=1.0),)
        bad = (
            [1.0, 2.0],
            -1.0,
            math.nan,
            math.inf,
            [math.nan],
            True,
            [True],
            None,
            {"a": 1},
            "1",
        )
        for compute_times in bad:
            with pytest.raises(ScheduleError):
                optimize_with_overlap(costs, params_with(0), compute_times)
        with pytest.raises(ScheduleError):
            evaluate_schedule_with_overlap(
                costs, Schedule.static(1), params_with(0), math.nan
            )


class TestTradeoff:
    @pytest.fixture
    def costs(self):
        collective = make_collective("allreduce_recursive_doubling", 16, MiB(4))
        return evaluate_step_costs(collective, ring(16, B), params_with(us(1)))

    @staticmethod
    def regimes(*alpha_rs):
        """Panel a's regime row at n=16 and 4 MiB: the same collective,
        ring and cost scalars as ``costs``."""
        config = PaperConfig(n=16, message_sizes=(MiB(4),), alpha_rs=alpha_rs)
        grid = run_panel(panel_by_id("a"), config, cache=ThroughputCache()).grid
        return list(grid.regimes()[0])

    def test_regime_extremes(self):
        assert self.regimes(1.0, 0.0) == ["static", "bvn"]

    def test_mixed_regime_exists(self):
        # scan for a point where OPT strictly beats both pure strategies
        regimes = self.regimes(
            us(0.1), us(1), us(3), us(10), us(30), us(100), us(300)
        )
        assert "mixed" in regimes

    def test_breakeven_consistency(self, costs):
        breakeven = static_bvn_breakeven(costs, params_with(us(1)))
        below = params_with(breakeven * 0.5)
        above = params_with(breakeven * 2.0)
        assert bvn_cost(costs, below).total <= static_cost(costs, below).total
        assert bvn_cost(costs, above).total >= static_cost(costs, above).total

    def test_crossover_to_static_bracket(self, costs):
        crossover = crossover_to_static(costs, params_with(us(1)))
        assert 0 < crossover < 10
        just_below = optimize_schedule(costs, params_with(crossover * 0.5))
        at_crossover = optimize_schedule(costs, params_with(crossover * 1.01))
        assert not just_below.schedule.is_static()
        assert at_crossover.schedule.is_static()
