"""The unified planner: scenarios, the solver registry, and batching.

Covers the API-redesign contract:

* Scenario dict round-tripping (config-driven sweeps);
* registry error paths (unknown solver, duplicate registration);
* bit-exact parity of every registered solver with its legacy entry
  point on the paper's n=64 ring configuration;
* ``plan_many`` input order and a shared, thread-safe throughput
  cache.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CostParameters,
    evaluate_schedule,
    evaluate_step_costs,
    greedy_sequential_schedule,
    optimize_pool_schedule,
    optimize_schedule,
    optimize_schedule_ilp,
    threshold_schedule,
)
from repro.core.multiport import evaluate_multiport_step_costs, multiport_alltoall
from repro.core.overlap import optimize_with_overlap
from repro.core.schedule import Schedule
from repro.collectives import make_collective
from repro.exceptions import ConfigurationError, ScheduleError
from repro.engine import plan_many
from repro.flows import PathLengthRule, ThroughputCache
from repro.planner import (
    CollectiveSpec,
    PlanRequest,
    Scenario,
    TopologySpec,
    available_solvers,
    available_topology_families,
    plan,
    register_solver,
    scenario_grid,
    unregister_solver,
)
from repro.topology import ring
from repro.units import Gbps, KiB, MiB, ns, us


def paper_scenario(
    algorithm: str = "allreduce_recursive_doubling",
    message_size: float = MiB(64),
    alpha_r: float = us(10),
    n: int = 64,
) -> Scenario:
    """The paper's §3.4 single-cell configuration."""
    return Scenario.create(
        algorithm,
        n=n,
        message_size=message_size,
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=alpha_r,
    )


class TestScenario:
    def test_dict_round_trip(self):
        scenario = paper_scenario().replace(
            theta_method="proxy",
            path_rule=PathLengthRule.MEAN_PAIR_HOPS,
            name="round-trip",
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        assert hash(rebuilt) == hash(scenario)

    def test_dict_round_trip_with_options(self):
        scenario = Scenario(
            topology=TopologySpec(
                family="coprime_rings",
                n=16,
                bandwidth=Gbps(400),
                options={"shifts": [1, 3], "bidirectional": True},
            ),
            collective=CollectiveSpec(
                algorithm="broadcast_binomial",
                message_size=KiB(64),
                options={"root": 3},
            ),
            cost=CostParameters(
                alpha=ns(50), bandwidth=Gbps(400), delta=ns(10),
                reconfiguration_delay=us(5),
            ),
        )
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt == scenario
        # options are canonicalized: lists become tuples, keys sorted
        assert rebuilt.topology.options == (("bidirectional", True), ("shifts", (1, 3)))

    def test_multiport_round_trip(self):
        scenario = paper_scenario("alltoall", n=8).replace(multiport_radix=4)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.tuples(
            st.integers(0, 1 << 40),  # message_size
            st.integers(1, 1 << 40),  # bandwidth (topology and cost)
            st.integers(0, 100),  # alpha
            st.integers(0, 100),  # delta
            st.integers(0, 100),  # reconfiguration_delay
        ),
        as_float=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_int_and_float_spellings_fingerprint_alike(self, values, as_float):
        """Every field ``from_dict`` reads with ``float()`` may be given
        as an int: the scenario equals, and fingerprints like, its float
        spelling and its own round trip."""
        message_size, bandwidth, alpha, delta, alpha_r = values

        def spell(spelling):
            cast = [float if f else int for f in spelling]
            return Scenario(
                topology=TopologySpec("ring", 8, cast[0](bandwidth)),
                collective=CollectiveSpec("alltoall", cast[1](message_size)),
                cost=CostParameters(
                    alpha=cast[2](alpha),
                    bandwidth=cast[3](bandwidth),
                    delta=cast[4](delta),
                    reconfiguration_delay=cast[5](alpha_r),
                ),
            )

        scenario = spell(as_float)
        floats = spell([True] * 6)
        loaded = Scenario.from_dict(scenario.to_dict())
        assert scenario == floats == loaded
        assert scenario.fingerprint() == floats.fingerprint() == loaded.fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        data = paper_scenario().to_dict()
        data["frobnicate"] = 1
        with pytest.raises(ConfigurationError, match="frobnicate"):
            Scenario.from_dict(data)

    def test_from_dict_rejects_unknown_nested_keys(self):
        data = paper_scenario().to_dict()
        data["cost"]["gamma"] = 1.0
        with pytest.raises(ConfigurationError, match="gamma"):
            Scenario.from_dict(data)

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="topology family"):
            TopologySpec(family="klein_bottle")
        with pytest.raises(ConfigurationError, match="collective"):
            CollectiveSpec(algorithm="no_such_collective")
        with pytest.raises(ConfigurationError, match="theta method"):
            paper_scenario().replace(theta_method="oracle")
        with pytest.raises(ConfigurationError, match="alltoall"):
            paper_scenario("allreduce_swing").replace(multiport_radix=2)
        with pytest.raises(ConfigurationError, match="dims"):
            TopologySpec(family="torus", n=16).build()
        with pytest.raises(ConfigurationError, match="bandwidth"):
            # the fabric's and the cost model's bandwidth must agree
            base = paper_scenario()
            base.replace(
                topology=TopologySpec(family="ring", n=64, bandwidth=Gbps(400))
            )

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_message_size_must_be_finite_and_non_negative(self, size):
        with pytest.raises(ConfigurationError, match="message_size"):
            CollectiveSpec("alltoall", size)
        with pytest.raises(ConfigurationError, match="message_size"):
            paper_scenario("alltoall", n=8).replace(message_size=size)
        data = paper_scenario("alltoall", n=8).to_dict()
        data["collective"]["message_size"] = size
        with pytest.raises(ConfigurationError, match="message_size"):
            Scenario.from_dict(data)

    def test_bad_collective_option_is_a_configuration_error(self):
        spec = CollectiveSpec("allreduce_ring", 1.0, {"root": 1})
        with pytest.raises(ConfigurationError, match="bad options.*root"):
            spec.build(8)
        scenario = paper_scenario("allreduce_ring", n=8).replace(collective=spec)
        with pytest.raises(ConfigurationError, match="bad options"):
            plan(scenario, cache=ThroughputCache())

    def test_build_topology_matches_family(self):
        assert "ring" in available_topology_families()
        spec = TopologySpec(family="ring", n=8, bandwidth=Gbps(800))
        topology = spec.build()
        assert topology.n_ranks == 8
        # building the same spec twice returns the memoized instance
        assert spec.build() is topology

    def test_scenario_grid_row_major(self):
        base = paper_scenario(n=8)
        grid = scenario_grid(base, [KiB(1), MiB(1)], [us(1), us(10), us(100)])
        assert len(grid) == 6
        assert grid[0].collective.message_size == KiB(1)
        assert grid[0].cost.reconfiguration_delay == us(1)
        assert grid[5].collective.message_size == MiB(1)
        assert grid[5].cost.reconfiguration_delay == us(100)


class TestPlanResultSerialization:
    """PlanResult dict round-tripping (the SimResult dict format embeds
    these, so the two stay consistent by construction)."""

    def test_json_round_trip(self):
        import json

        result = plan(paper_scenario(n=8), cache=ThroughputCache())
        from repro.planner import PlanResult

        rebuilt = PlanResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result
        assert rebuilt.schedule == result.schedule
        assert rebuilt.cost == result.cost
        assert rebuilt.cache_stats == result.cache_stats

    def test_round_trip_without_cache_stats(self):
        from repro.planner import PlanResult

        result = plan(paper_scenario(n=8), cache=None)
        assert result.cache_stats is None
        rebuilt = PlanResult.from_dict(result.to_dict())
        assert rebuilt == result

    def test_pool_round_trip_keeps_rich_labels(self):
        from repro.planner import PlanResult

        result = plan(paper_scenario(n=8), solver="pool", cache=ThroughputCache())
        rebuilt = PlanResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.schedule is None
        assert rebuilt.cost is None
        assert rebuilt.metadata_dict == result.metadata_dict

    def test_round_trip_preserves_solver_options(self):
        from repro.planner import PlanResult

        result = plan(
            paper_scenario(n=8),
            solver="overlap",
            cache=ThroughputCache(),
            compute_times=us(3),
        )
        rebuilt = PlanResult.from_dict(result.to_dict())
        assert rebuilt == result
        assert rebuilt.request.options_dict == {"compute_times": us(3)}

    def test_from_dict_rejects_empty_decisions(self):
        from repro.planner import PlanResult

        data = plan(paper_scenario(n=8), cache=None).to_dict()
        data["decisions"] = []
        with pytest.raises(ConfigurationError, match="decision"):
            PlanResult.from_dict(data)

    def test_from_dict_names_missing_fields(self):
        from repro.planner import PlanResult

        data = plan(paper_scenario(n=8), cache=None).to_dict()
        del data["total_time"]
        with pytest.raises(ConfigurationError, match="total_time"):
            PlanResult.from_dict(data)
        data = plan(paper_scenario(n=8), cache=None).to_dict()
        del data["cost"]["per_step"]
        with pytest.raises(ConfigurationError, match="per_step"):
            PlanResult.from_dict(data)

    def test_from_dict_rejects_bad_schedule_glyphs(self):
        from repro.planner import PlanResult

        data = plan(paper_scenario(n=8), cache=None).to_dict()
        data["schedule"] = "GMX" + data["schedule"][3:]
        with pytest.raises(ConfigurationError, match="G/M"):
            PlanResult.from_dict(data)

    def test_from_dict_rejects_contradictory_schedule(self):
        from repro.planner import PlanResult

        data = plan(paper_scenario(n=8), solver="bvn", cache=None).to_dict()
        assert set(data["decisions"]) == {"matched"}
        data["schedule"] = "G" * len(data["decisions"])
        with pytest.raises(ConfigurationError, match="contradicts"):
            PlanResult.from_dict(data)


class TestRegistry:
    def test_builtins_present(self):
        names = available_solvers()
        for expected in ("dp", "ilp", "pool", "overlap", "threshold", "greedy",
                         "static", "bvn"):
            assert expected in names

    def test_unknown_solver(self):
        with pytest.raises(ConfigurationError, match="unknown solver"):
            plan(paper_scenario(n=4), solver="quantum_annealer")

    def test_duplicate_registration(self):
        def fake(request, cache):  # pragma: no cover - never called
            raise AssertionError

        register_solver("test_dup", fake)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_solver("test_dup", fake)
            register_solver("test_dup", fake, overwrite=True)  # explicit is fine
        finally:
            unregister_solver("test_dup")
        with pytest.raises(ConfigurationError, match="not registered"):
            unregister_solver("test_dup")

    def test_non_callable_rejected(self):
        with pytest.raises(ConfigurationError, match="callable"):
            register_solver("test_bad", 42)

    def test_custom_solver_round_trip(self):
        def always_static(request, cache):
            scenario = request.scenario
            costs = scenario.step_costs(cache=cache)
            schedule = Schedule.static(len(costs))
            cost = evaluate_schedule(costs, schedule, scenario.cost)
            from repro.planner import PlanResult

            return PlanResult.from_schedule(
                request, schedule, cost, solver=request.solver
            )

        register_solver("test_static", always_static)
        try:
            result = plan(paper_scenario(n=8), solver="test_static")
            assert result.solver == "test_static"
            assert result.schedule.is_static()
        finally:
            unregister_solver("test_static")

    def test_unknown_solver_options_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            plan(paper_scenario(n=4), solver="dp", tolerance=0.1)


class TestLegacyParity:
    """plan(scenario, solver=s) is bit-identical to the legacy call."""

    @pytest.fixture(scope="class")
    def setup(self):
        scenario = paper_scenario()
        cache = ThroughputCache()
        topology = ring(64, Gbps(800))
        collective = make_collective(
            "allreduce_recursive_doubling", 64, MiB(64)
        )
        step_costs = evaluate_step_costs(
            collective, topology, scenario.cost, cache=cache
        )
        return scenario, cache, topology, collective, step_costs

    def test_dp(self, setup):
        scenario, cache, _, _, step_costs = setup
        legacy = optimize_schedule(step_costs, scenario.cost)
        result = plan(scenario, solver="dp", cache=cache)
        assert result.schedule == legacy.schedule
        assert result.total_time == legacy.cost.total
        assert result.cost == legacy.cost

    def test_ilp(self, setup):
        scenario, cache, _, _, step_costs = setup
        legacy = optimize_schedule_ilp(step_costs, scenario.cost)
        result = plan(scenario, solver="ilp", cache=cache)
        assert result.schedule == legacy.schedule
        assert result.total_time == legacy.cost.total

    def test_overlap(self, setup):
        scenario, cache, _, _, step_costs = setup
        legacy = optimize_with_overlap(step_costs, scenario.cost, us(3))
        result = plan(scenario, solver="overlap", cache=cache, compute_times=us(3))
        assert result.schedule == legacy.schedule
        assert result.total_time == legacy.cost.total

    def test_threshold(self, setup):
        scenario, cache, _, _, step_costs = setup
        schedule = threshold_schedule(step_costs, scenario.cost)
        legacy = evaluate_schedule(step_costs, schedule, scenario.cost)
        result = plan(scenario, solver="threshold", cache=cache)
        assert result.schedule == schedule
        assert result.total_time == legacy.total

    def test_greedy(self, setup):
        scenario, cache, _, _, step_costs = setup
        schedule = greedy_sequential_schedule(step_costs, scenario.cost)
        legacy = evaluate_schedule(step_costs, schedule, scenario.cost)
        result = plan(scenario, solver="greedy", cache=cache)
        assert result.schedule == schedule
        assert result.total_time == legacy.total

    def test_pool(self, setup):
        scenario, cache, topology, collective, _ = setup
        legacy = optimize_pool_schedule(
            collective, [topology], scenario.cost, cache=cache
        )
        result = plan(scenario, solver="pool", cache=cache)
        assert result.total_time == legacy.total
        assert result.n_reconfigurations == legacy.n_reconfigurations
        assert result.metadata_dict["pool_decisions"] == [
            d.index for d in legacy.decisions
        ]
        assert result.schedule is None

    def test_multiport(self):
        scenario = paper_scenario("alltoall", n=16).replace(multiport_radix=4)
        cache = ThroughputCache()
        steps = multiport_alltoall(16, MiB(64), 4)
        costs = evaluate_multiport_step_costs(
            steps, ring(16, Gbps(800)), scenario.cost, 4, cache=ThroughputCache()
        )
        legacy = optimize_schedule(costs, scenario.cost)
        result = plan(scenario, solver="dp", cache=cache)
        assert result.schedule == legacy.schedule
        assert result.total_time == legacy.cost.total

    def test_pool_rejects_multiport(self):
        scenario = paper_scenario("alltoall", n=8).replace(multiport_radix=2)
        with pytest.raises(ConfigurationError, match="single-port"):
            plan(scenario, solver="pool", cache=ThroughputCache())


class TestPlanMany:
    def grid(self):
        # 6 x 6 = 36 points, the acceptance-criteria grid size
        return scenario_grid(
            paper_scenario(n=16, message_size=KiB(1)),
            [KiB(1), KiB(16), KiB(256), MiB(4), MiB(64), MiB(512)],
            [ns(100), us(1), us(10), us(100), us(1000), us(10000)],
        )

    def test_results_in_input_order(self):
        grid = self.grid()
        shared = ThroughputCache()
        results = plan_many(grid, cache=shared)
        assert [r.scenario for r in results] == grid
        # the shared cache absorbed the cross-cell redundancy
        assert results[-1].cache_stats is not None
        assert shared.stats().hit_rate > 0

    def test_mixed_requests(self):
        scenario = paper_scenario(n=8)
        cache = ThroughputCache()
        results = plan_many(
            [
                scenario,
                PlanRequest(scenario=scenario, solver="static"),
                PlanRequest(scenario=scenario, solver="bvn"),
            ],
            solver="dp",
            cache=cache,
        )
        assert [r.solver for r in results] == ["dp", "static", "bvn"]
        # OPT is never worse than either pure policy
        assert results[0].total_time <= results[1].total_time
        assert results[0].total_time <= results[2].total_time

    def test_invalid_parallel(self):
        # There is no worker-count knob: a stale one is an unknown
        # solver option.
        with pytest.raises(ConfigurationError, match="parallel"):
            plan_many([paper_scenario(n=4)], parallel=4)

    def test_plan_many_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="parallel_backend"):
            plan_many(
                [paper_scenario(n=4)], parallel_backend="thread", cache=None
            )


class TestThroughputCacheThreadSafety:
    def test_concurrent_get_or_compute(self):
        cache = ThroughputCache()
        topology = ring(8, Gbps(800))
        matching = make_collective("allreduce_swing", 8, KiB(8)).steps[0].matching
        barrier = threading.Barrier(8)
        errors = []

        def worker():
            barrier.wait()
            for _ in range(200):
                value = cache.get_or_compute(topology, matching, lambda: 0.5)
                if value != 0.5:  # pragma: no cover
                    errors.append(value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.size == 1
        assert stats.hits + stats.misses == 8 * 200
        assert stats.lookups == 8 * 200
        assert 0 < stats.hit_rate <= 1

    def test_stats_snapshot(self):
        cache = ThroughputCache()
        assert cache.stats().hit_rate == 0.0
        topology = ring(4, Gbps(800))
        matching = make_collective("alltoall", 4, KiB(4)).steps[0].matching
        cache.get_or_compute(topology, matching, lambda: 2.0)
        cache.get_or_compute(topology, matching, lambda: 2.0)
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)
        cache.clear()
        assert cache.stats() == type(stats)(hits=0, misses=0, size=0)


class TestCostParametersReplace:
    def test_replace_sweep_helper(self, params):
        swept = params.replace(alpha=ns(200), reconfiguration_delay=us(99))
        assert swept.alpha == ns(200)
        assert swept.reconfiguration_delay == us(99)
        assert swept.bandwidth == params.bandwidth
        assert swept.delta == params.delta

    def test_replace_still_validates(self, params):
        with pytest.raises(ScheduleError):
            params.replace(bandwidth=0.0)
        with pytest.raises(ScheduleError):
            params.replace(alpha=-1.0)

    def test_with_reconfiguration_delay(self, params):
        assert params.with_reconfiguration_delay(us(7)) == params.replace(
            reconfiguration_delay=us(7)
        )


class TestScenarioReplace:
    """``Scenario.replace`` convenience overrides (mirrors
    ``CostParameters.replace``, plus the flat keys of ``create``)."""

    def test_top_level_fields(self):
        scenario = paper_scenario()
        renamed = scenario.replace(name="swept", theta_method="sp")
        assert renamed.name == "swept"
        assert renamed.theta_method == "sp"
        assert renamed.topology == scenario.topology

    def test_nested_convenience_keys(self):
        scenario = paper_scenario()
        swept = scenario.replace(
            algorithm="alltoall",
            message_size=MiB(8),
            alpha_r=us(99),
            alpha=ns(200),
            delta=ns(50),
            n=16,
        )
        assert swept.collective.algorithm == "alltoall"
        assert swept.collective.message_size == MiB(8)
        assert swept.cost.reconfiguration_delay == us(99)
        assert swept.cost.alpha == ns(200)
        assert swept.cost.delta == ns(50)
        assert swept.topology.n == 16
        # untouched fields survive
        assert swept.topology.family == scenario.topology.family
        assert swept.cost.bandwidth == scenario.cost.bandwidth

    def test_bandwidth_updates_both_sides(self):
        swept = paper_scenario().replace(bandwidth=Gbps(400))
        assert swept.topology.bandwidth == Gbps(400)
        assert swept.cost.bandwidth == Gbps(400)

    def test_reconfiguration_delay_alias(self):
        scenario = paper_scenario()
        assert scenario.replace(alpha_r=us(3)) == scenario.replace(
            reconfiguration_delay=us(3)
        )
        with pytest.raises(ConfigurationError, match="not both"):
            scenario.replace(alpha_r=us(3), reconfiguration_delay=us(4))

    def test_shortcuts_conflict_with_explicit_specs(self):
        scenario = paper_scenario()
        with pytest.raises(ConfigurationError, match="cannot combine"):
            scenario.replace(
                message_size=MiB(1), collective=scenario.collective
            )

    def test_validation_still_runs(self):
        scenario = paper_scenario()
        with pytest.raises(ConfigurationError):
            scenario.replace(algorithm="not-a-collective")
        with pytest.raises(ScheduleError):
            scenario.replace(alpha=-1.0)

    def test_replace_round_trips_equality(self):
        scenario = paper_scenario()
        assert scenario.replace() == scenario
        assert scenario.replace(message_size=MiB(64)) == scenario
