"""Tests for the adaptive workload engine: specs, traces, physical
reconfiguration accounting, online policies, and sim-in-the-loop
execution of multi-phase workloads."""

from __future__ import annotations

import itertools
import json
import math

import pytest

from repro.core.optimizer_dp import optimize_schedule_physical
from repro.core.schedule import (
    Decision,
    Schedule,
    evaluate_schedule,
    evaluate_schedule_physical,
    step_configuration,
)
from repro.exceptions import ConfigurationError, SimulationError, WorkloadError
from repro.fabric.reconfiguration import (
    ConstantReconfigurationDelay,
    PerPortReconfigurationDelay,
    configuration_from_topology,
)
from repro.flows import ThroughputCache
from repro.planner import Scenario
from repro.sim import WorkloadSimResult, simulate_workload
from repro.units import Gbps, MiB, ns, us
from repro.workload import (
    Workload,
    WorkloadPlan,
    available_policies,
    bursty_trace,
    interleave,
    moe_trace,
    plan_workload,
    register_policy,
    steady_trace,
    training_loop_trace,
    unregister_policy,
)


def base_scenario(
    algorithm="allreduce_recursive_doubling",
    n=8,
    message=MiB(4),
    alpha_r=us(10),
    topology="ring",
):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=message,
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=alpha_r,
        topology=topology,
    )


#: Ring allreduce on a line base: every step shares one shift-by-one
#: matching, the wrap-around pair congests the whole line, and the
#: scenario's constant alpha_r is priced high — the canonical
#: configuration-overlapping trace where carried state pays.
def overlapping_scenario(n=8):
    return base_scenario(
        algorithm="allreduce_ring",
        n=n,
        message=MiB(4),
        alpha_r=us(500),
        topology="line",
    )


# -- Workload spec -----------------------------------------------------------


class TestWorkloadSpec:
    def test_needs_at_least_one_phase(self):
        with pytest.raises(WorkloadError):
            Workload(phases=())

    def test_rejects_mixed_fabrics(self):
        a = base_scenario(n=8)
        b = base_scenario(n=16)
        with pytest.raises(WorkloadError, match="shares one fabric"):
            Workload(phases=(a, b))

    def test_rejects_multiport_phases(self):
        single = base_scenario("alltoall")
        multi = single.replace(multiport_radix=2)
        with pytest.raises(WorkloadError, match="single-port"):
            Workload(phases=(single, multi))

    def test_round_trips_through_dicts(self):
        workload = training_loop_trace(base_scenario(), 2)
        data = json.loads(json.dumps(workload.to_dict()))
        assert Workload.from_dict(data) == workload

    def test_from_dict_rejects_unknown_keys(self):
        data = steady_trace(base_scenario(), 2).to_dict()
        data["oops"] = 1
        with pytest.raises(WorkloadError, match="oops"):
            Workload.from_dict(data)

    def test_conveniences(self):
        workload = steady_trace(base_scenario(), 3)
        assert len(workload) == 3
        assert workload.n == 8
        assert [p.collective.algorithm for p in workload] == [
            "allreduce_recursive_doubling"
        ] * 3
        extended = workload.extended([base_scenario()])
        assert len(extended) == 4

    def test_base_configuration_rejects_relay_fabrics(self):
        star = Scenario.create(
            "allreduce_recursive_doubling",
            n=8,
            message_size=MiB(1),
            bandwidth=Gbps(800),
            alpha=0.0,
            delta=0.0,
            reconfiguration_delay=0.0,
            topology="star",
        )
        with pytest.raises(WorkloadError, match="relay"):
            steady_trace(star, 2).base_configuration()


class TestInterleave:
    def test_round_robin_order_and_tags(self):
        a = steady_trace(base_scenario(), 2, name="jobA")
        b = moe_trace(base_scenario(), 1, name="jobB")
        merged = interleave([a, b])
        assert len(merged) == 4
        assert merged.phases[0].name.startswith("jobA/")
        assert merged.phases[1].name.startswith("jobB/")
        # tenant B has 2 phases; round 2 pairs A's 2nd with B's 2nd
        assert merged.phases[2].name.startswith("jobA/")
        assert merged.phases[3].name.startswith("jobB/")

    def test_uneven_tenants_drop_out(self):
        a = steady_trace(base_scenario(), 3, name="long")
        b = steady_trace(base_scenario(), 1, name="short")
        merged = interleave([a, b])
        assert len(merged) == 4
        assert [p.name.split("/")[0] for p in merged.phases] == [
            "long",
            "short",
            "long",
            "long",
        ]

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            interleave([])


# -- trace generators --------------------------------------------------------


class TestTraces:
    def test_steady_is_deterministic(self):
        a = steady_trace(base_scenario(), 4)
        b = steady_trace(base_scenario(), 4)
        assert a == b

    def test_bursty_scales_every_period(self):
        workload = bursty_trace(base_scenario(message=MiB(1)), 8, period=4)
        sizes = [p.collective.message_size for p in workload]
        assert sizes[3] == sizes[7] == MiB(8)
        assert sizes[0] == sizes[1] == sizes[2] == MiB(1)

    def test_training_loop_cycles(self):
        workload = training_loop_trace(base_scenario(), 2)
        algorithms = [p.collective.algorithm for p in workload]
        assert algorithms == [
            "allgather_recursive_doubling",
            "reduce_scatter_halving",
            "allreduce_recursive_doubling",
        ] * 2

    def test_training_loop_phase_shift_rotates(self):
        workload = training_loop_trace(base_scenario(), 2, shift=1)
        algorithms = [p.collective.algorithm for p in workload]
        assert algorithms[0:3] != algorithms[3:6]
        assert sorted(algorithms[0:3]) == sorted(algorithms[3:6])

    def test_moe_alternates(self):
        workload = moe_trace(base_scenario(message=MiB(4)), 2)
        algorithms = [p.collective.algorithm for p in workload]
        assert algorithms == [
            "allreduce_recursive_doubling",
            "alltoall",
        ] * 2
        assert workload.phases[1].collective.message_size == MiB(1)

    def test_bad_arguments(self):
        with pytest.raises(WorkloadError):
            steady_trace(base_scenario(), 0)
        with pytest.raises(WorkloadError):
            bursty_trace(base_scenario(), 4, period=0)
        with pytest.raises(WorkloadError):
            training_loop_trace(base_scenario(), 2, cycle=())
        with pytest.raises(WorkloadError):
            moe_trace(base_scenario(), 2, alltoall_scale=0.0)


# -- physical accounting -----------------------------------------------------


class TestPhysicalAccounting:
    def test_step_costs_carry_matchings(self):
        scenario = base_scenario()
        costs = scenario.step_costs()
        collective = scenario.build_collective()
        assert [c.matching for c in costs] == [
            s.matching for s in collective.steps
        ]

    def test_constant_model_vs_eq7_reference(self):
        # Under a constant model, physical accounting differs from
        # Eq. 7 in exactly one way: transitions between *identical*
        # configurations are free.  Check every schedule against an
        # independent reference count of the configuration changes.
        scenario = base_scenario()
        costs = scenario.step_costs()
        base_config = configuration_from_topology(scenario.build_topology())
        alpha_r = scenario.cost.reconfiguration_delay
        model = ConstantReconfigurationDelay(alpha_r)
        for bits in itertools.product((0, 1), repeat=len(costs)):
            schedule = Schedule.from_bits(bits)
            eq7 = evaluate_schedule(costs, schedule, scenario.cost)
            physical = evaluate_schedule_physical(
                costs, schedule, scenario.cost, model, base_config
            )
            current = base_config
            changes = 0
            for cost, decision in zip(costs, schedule.decisions):
                target = (
                    base_config
                    if decision is Decision.BASE
                    else frozenset(cost.matching.pairs)
                )
                if target != current:
                    changes += 1
                current = target
            expected = (
                eq7.total
                - alpha_r * eq7.n_reconfigurations
                + alpha_r * changes
            )
            assert physical.total == pytest.approx(expected, rel=1e-12)
            assert physical.n_reconfigurations == changes
            assert physical.total <= eq7.total * (1 + 1e-12)

    def test_identical_consecutive_matchings_are_free(self):
        # Ring allreduce repeats one matching; the all-matched schedule
        # pays for exactly one transition under physical accounting.
        scenario = overlapping_scenario()
        costs = scenario.step_costs()
        base_config = configuration_from_topology(scenario.build_topology())
        model = ConstantReconfigurationDelay(us(500))
        schedule = Schedule.always_reconfigure(len(costs))
        physical = evaluate_schedule_physical(
            costs, schedule, scenario.cost, model, base_config
        )
        assert physical.n_reconfigurations == 1
        assert physical.reconfiguration_term == pytest.approx(us(500))
        eq7 = evaluate_schedule(costs, schedule, scenario.cost)
        assert eq7.n_reconfigurations == len(costs)

    def test_initial_configuration_waives_the_opening(self):
        scenario = overlapping_scenario()
        costs = scenario.step_costs()
        base_config = configuration_from_topology(scenario.build_topology())
        model = PerPortReconfigurationDelay(us(5), us(1))
        schedule = Schedule.always_reconfigure(len(costs))
        carried = step_configuration(Decision.MATCHED, costs[0], base_config)
        warm = evaluate_schedule_physical(
            costs,
            schedule,
            scenario.cost,
            model,
            base_config,
            initial_configuration=carried,
        )
        cold = evaluate_schedule_physical(
            costs, schedule, scenario.cost, model, base_config
        )
        assert warm.reconfiguration_term == 0.0
        assert cold.reconfiguration_term > 0.0

    @pytest.mark.parametrize("force_first", [None, Decision.BASE, Decision.MATCHED])
    @pytest.mark.parametrize("carried", [False, True], ids=["from-base", "carried"])
    @pytest.mark.parametrize(
        "scenario",
        [base_scenario("alltoall", n=4, message=MiB(2)), overlapping_scenario(n=6)],
        ids=["alltoall", "repeating-ring"],
    )
    def test_physical_dp_matches_brute_force(self, scenario, carried, force_first):
        # The repeating ring makes matched -> matched free; a carried
        # configuration makes opening on step 0's circuits free.
        costs = scenario.step_costs()
        base_config = configuration_from_topology(scenario.build_topology())
        model = PerPortReconfigurationDelay(us(2), ns(700))
        initial = (
            step_configuration(Decision.MATCHED, costs[0], base_config)
            if carried
            else None
        )
        result = optimize_schedule_physical(
            costs,
            scenario.cost,
            model,
            base_config,
            initial_configuration=initial,
            force_first=force_first,
        )
        schedules = [
            Schedule.from_bits(bits)
            for bits in itertools.product((0, 1), repeat=len(costs))
        ]
        best = min(
            evaluate_schedule_physical(
                costs,
                schedule,
                scenario.cost,
                model,
                base_config,
                initial_configuration=initial,
            ).total
            for schedule in schedules
            if force_first in (None, schedule.decisions[0])
        )
        assert result.cost.total == pytest.approx(best, rel=1e-12)
        if force_first is not None:
            assert result.schedule.decisions[0] is force_first

    def test_physical_dp_force_first(self):
        scenario = overlapping_scenario()
        costs = scenario.step_costs()
        base_config = configuration_from_topology(scenario.build_topology())
        model = PerPortReconfigurationDelay(us(5), us(1))
        held = optimize_schedule_physical(
            costs,
            scenario.cost,
            model,
            base_config,
            force_first=Decision.BASE,
        )
        assert held.schedule.decisions[0] is Decision.BASE
        free = optimize_schedule_physical(
            costs, scenario.cost, model, base_config
        )
        assert free.cost.total <= held.cost.total

    def test_schedule_without_matchings_rejects_physical_accounting(self):
        from repro.core.cost_model import StepCost

        costs = (StepCost(volume=MiB(1), theta=0.5, hops=2.0),)
        model = ConstantReconfigurationDelay(us(1))
        with pytest.raises(Exception, match="carry their matchings"):
            evaluate_schedule_physical(
                costs,
                Schedule.always_reconfigure(1),
                base_scenario().cost,
                model,
                frozenset(),
            )


# -- planning policies -------------------------------------------------------


class TestPlanWorkload:
    def test_builtin_policies_registered(self):
        assert {"replan", "hysteresis", "oracle"} <= set(available_policies())

    def test_registry_guards(self):
        with pytest.raises(WorkloadError):
            register_policy("replan", lambda ctx: [])
        register_policy("custom-test", lambda ctx: [])
        unregister_policy("custom-test")
        with pytest.raises(WorkloadError):
            unregister_policy("custom-test")

    def test_unknown_policy(self):
        with pytest.raises(WorkloadError, match="unknown policy"):
            plan_workload(steady_trace(base_scenario(), 2), policy="nope")

    def test_totals_are_sums_of_phases(self):
        plan = plan_workload(training_loop_trace(base_scenario(), 2))
        assert plan.total_time == pytest.approx(
            sum(plan.per_phase_times), rel=1e-12
        )
        assert plan.n_reconfigurations == sum(
            p.cost.n_reconfigurations for p in plan.phases
        )

    def test_carried_state_threads_between_phases(self):
        workload = steady_trace(overlapping_scenario(), 3)
        plan = plan_workload(
            workload,
            policy="hysteresis",
            reconfiguration_model=PerPortReconfigurationDelay(us(5), us(1)),
        )
        base = workload.base_configuration()
        for previous, current in zip(plan.phases, plan.phases[1:]):
            assert previous.carried_out == current.carried_in
            assert previous.carried_out_configuration(
                base
            ) == current.carried_in_configuration(base)

    def test_hysteresis_beats_replan_on_overlapping_trace(self):
        # The acceptance case: ring allreduce (one matching, repeated)
        # on a line base under PerPortReconfigurationDelay.  The
        # memoryless replan trusts the scenario's huge constant alpha_r
        # and stays on the congested base; hysteresis prices the real
        # per-port cost, pays it once, and rides the standing circuits
        # across every phase boundary.
        workload = steady_trace(overlapping_scenario(), 4)
        model = PerPortReconfigurationDelay(base=us(5), per_port=us(1))
        replan = plan_workload(
            workload, policy="replan", reconfiguration_model=model
        )
        hysteresis = plan_workload(
            workload, policy="hysteresis", reconfiguration_model=model
        )
        assert hysteresis.speedup_over(replan) > 1.5
        # after the first phase, every opening rides the carried config
        assert [p.opening_delay for p in hysteresis.phases][1:] == [0.0] * 3

    def test_policy_ordering_oracle_best(self):
        # oracle <= every online policy is the one true dominance law
        # (it is the exact full-horizon DP); hysteresis vs replan has
        # no general ordering — greedy per-phase optimality can lock in
        # an ending configuration that costs more downstream — so only
        # the oracle bound is asserted here.
        workload = training_loop_trace(base_scenario(), 3)
        model = PerPortReconfigurationDelay(us(2), ns(500))
        totals = {
            policy: plan_workload(
                workload, policy=policy, reconfiguration_model=model
            ).total_time
            for policy in ("replan", "hysteresis", "oracle")
        }
        assert totals["oracle"] <= totals["hysteresis"] * (1 + 1e-12)
        assert totals["oracle"] <= totals["replan"] * (1 + 1e-12)

    def test_hysteresis_threshold_resists_churn(self):
        workload = steady_trace(overlapping_scenario(), 3)
        model = PerPortReconfigurationDelay(us(5), us(1))
        sticky = plan_workload(
            workload,
            policy="hysteresis",
            reconfiguration_model=model,
            threshold=1.0,  # an opening reconfiguration is never worth it
        )
        # with an impossible threshold no phase ever *opens* with a
        # reconfiguration — every boundary rides the standing circuits
        assert [p.opening_delay for p in sticky.phases] == [0.0] * 3
        free = plan_workload(
            workload, policy="hysteresis", reconfiguration_model=model
        )
        assert free.total_time <= sticky.total_time * (1 + 1e-12)

    def test_hysteresis_rejects_bad_options(self):
        workload = steady_trace(base_scenario(), 2)
        # NaN would make every comparison hold the standing circuits.
        for threshold in (-0.5, "abc", "0.5", math.nan, math.inf, True, None):
            with pytest.raises(WorkloadError, match="threshold"):
                plan_workload(workload, policy="hysteresis", threshold=threshold)
        with pytest.raises(WorkloadError, match="does not accept"):
            plan_workload(workload, policy="hysteresis", bogus=1)

    def test_oracle_requires_shared_cost_scalars(self):
        a = base_scenario()
        b = a.replace(alpha=us(5))
        with pytest.raises(WorkloadError, match="cost scalars"):
            plan_workload(Workload(phases=(a, b)), policy="oracle")

    def test_default_model_never_beats_eq7_charges(self):
        # With the default constant model the physical accounting can
        # only drop charges (identical transitions are free), never add.
        plan = plan_workload(training_loop_trace(base_scenario(), 2))
        assert plan.total_time <= plan.analytic_eq7_time * (1 + 1e-12)

    def test_workload_plan_round_trips(self):
        plan = plan_workload(
            moe_trace(base_scenario(message=MiB(4)), 2),
            policy="hysteresis",
            reconfiguration_model=PerPortReconfigurationDelay(us(1), ns(500)),
        )
        data = json.loads(json.dumps(plan.to_dict()))
        rebuilt = WorkloadPlan.from_dict(data)
        assert rebuilt.total_time == plan.total_time
        assert rebuilt.policy == plan.policy
        assert [p.carried_out for p in rebuilt.phases] == [
            p.carried_out for p in plan.phases
        ]
        assert repr(rebuilt.model) == repr(plan.model)


# -- sim-in-the-loop ---------------------------------------------------------


class TestSimulateWorkload:
    def test_measured_matches_analytic_per_phase(self):
        # The acceptance anchor: every phase's simulated duration equals
        # the plan's physically accounted total at float precision.
        workload = training_loop_trace(base_scenario(), 2)
        model = PerPortReconfigurationDelay(us(2), ns(500))
        for policy in ("replan", "hysteresis", "oracle"):
            result = simulate_workload(
                workload, policy=policy, reconfiguration_model=model
            )
            for phase in result.phases:
                assert phase.sim_time == pytest.approx(
                    phase.analytic_time, rel=1e-9
                )
            assert result.sim_time == pytest.approx(
                result.analytic_time, rel=1e-9
            )

    def test_phases_tile_the_workload_clock(self):
        result = simulate_workload(steady_trace(base_scenario(), 3))
        assert [phase.index for phase in result.phases] == [0, 1, 2]
        clock = 0.0
        for phase in result.phases:
            assert phase.start == pytest.approx(clock)
            assert phase.start <= phase.end
            # the phase's step rows sit inside it on the workload clock
            assert phase.start <= phase.steps[0].start
            assert phase.steps[-1].end <= phase.end
            clock = phase.end
        assert result.sim_time == pytest.approx(clock)

    def test_executes_prepared_plans(self):
        plan = plan_workload(steady_trace(base_scenario(), 2))
        result = simulate_workload(plan)
        assert result.plan is plan
        with pytest.raises(SimulationError, match="already carries"):
            simulate_workload(plan, policy="oracle")

    def test_rejects_other_items(self):
        with pytest.raises(SimulationError, match="expects a Workload"):
            simulate_workload(base_scenario())

    def test_rejects_unknown_rate_method(self):
        with pytest.raises(SimulationError, match="unknown rate method"):
            simulate_workload(
                steady_trace(base_scenario(), 2), rate_method="maxmn"
            )

    def test_result_round_trips(self):
        result = simulate_workload(moe_trace(base_scenario(message=MiB(4)), 1))
        data = json.loads(json.dumps(result.to_dict()))
        rebuilt = WorkloadSimResult.from_dict(data)
        assert rebuilt.sim_time == result.sim_time
        assert rebuilt.per_phase_times == result.per_phase_times
        assert rebuilt.phases == result.phases

    def test_collect_utilization(self):
        # a huge alpha_r keeps every step on the base ring, so the base
        # links carry all the traffic
        result = simulate_workload(
            steady_trace(base_scenario(message=MiB(1), alpha_r=us(1000)), 2),
            collect_utilization=True,
        )
        assert all(phase.link_utilization for phase in result.phases)


class TestWorkloadLoops:
    def test_plans_and_workloads_both_simulate(self):
        items = [
            plan_workload(steady_trace(base_scenario(), 2)),
            training_loop_trace(base_scenario(), 1),
        ]
        cache = ThroughputCache()
        results = [simulate_workload(item, cache=cache) for item in items]
        assert results[0].plan is items[0]
        assert results[1].workload == items[1]

    def test_rejects_bad_parallel(self):
        # There is no worker-count knob: a stale one is an unknown
        # solver option, on both workload entry points.
        workload = steady_trace(base_scenario(), 2)
        with pytest.raises(ConfigurationError, match="parallel"):
            simulate_workload(workload, parallel=4)
        with pytest.raises(ConfigurationError, match="parallel"):
            plan_workload(workload, parallel=4)


# -- analysis + experiment grid ---------------------------------------------


class TestAdaptivityAnalysis:
    def test_compare_policies_records(self):
        from repro.analysis import compare_policies

        workload = steady_trace(overlapping_scenario(), 3)
        model = PerPortReconfigurationDelay(us(5), us(1))
        comparison = compare_policies(workload, reconfiguration_model=model)
        assert comparison.policies == ("replan", "hysteresis", "oracle")
        assert comparison.speedup("hysteresis") > 1.5
        assert comparison.speedup("replan") == pytest.approx(1.0)
        records = comparison.phase_records("hysteresis")
        assert len(records) == 3
        assert all(r.policy == "hysteresis" for r in records)
        per_phase = comparison.per_phase_speedup("hysteresis")
        assert len(per_phase) == 3
        assert max(per_phase) > 1.5

    def test_workload_grid_small(self):
        from repro.experiments import run_workload_grid, workload_grid_report
        from repro.experiments.config import small_config

        cells = run_workload_grid(
            small_config(8),
            traces=("steady", "moe"),
            policies=("replan", "hysteresis"),
            phases=4,
            message_size=MiB(4),
            cache=ThroughputCache(),
        )
        assert len(cells) == 4
        by_key = {(c.trace, c.policy): c for c in cells}
        for trace in ("steady", "moe"):
            assert by_key[(trace, "replan")].speedup_vs_replan == pytest.approx(
                1.0
            )
            cell = by_key[(trace, "hysteresis")]
            assert cell.speedup_vs_replan > 0
            assert math.isfinite(cell.total_time) and cell.total_time > 0
        report = workload_grid_report(cells)
        assert "steady" in report and "hysteresis" in report

    def test_grid_rejects_unknown_trace(self):
        from repro.exceptions import ConfigurationError
        from repro.experiments import build_trace

        with pytest.raises(ConfigurationError, match="unknown trace"):
            build_trace("nope", base_scenario(), 4)
