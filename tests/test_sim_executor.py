"""Sim-in-the-loop execution: ``simulate_plan`` over single scenarios
and grids, the vectorized rate allocators, and the closed-form
cross-validation anchor (sim-measured completion time == alpha-beta
model, within tolerance)."""

from __future__ import annotations

import json

import pytest

from repro.collectives import make_collective
from repro.exceptions import SimulationError
from repro.flows import ThroughputCache
from repro.matching import Matching
from repro.planner import PlanResult, Scenario, plan, scenario_grid
from repro.sim import SimResult, SimStep, allocate_rates, simulate_plan
from repro.topology import hypercube, ring, torus
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)


def scenario_for(
    algorithm: str = "allreduce_recursive_doubling",
    n: int = 16,
    message_size: float = MiB(4),
    alpha_r: float = us(10),
    **kwargs,
) -> Scenario:
    return Scenario.create(
        algorithm,
        n=n,
        message_size=message_size,
        bandwidth=B,
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=alpha_r,
        **kwargs,
    )


class TestSimulatePlan:
    def test_scenario_and_plan_result_agree(self):
        scenario = scenario_for()
        cache = ThroughputCache()
        from_scenario = simulate_plan(scenario, cache=cache)
        from_plan = simulate_plan(plan(scenario, cache=cache), cache=cache)
        assert from_scenario.sim_time == from_plan.sim_time
        assert from_scenario.decisions == from_plan.decisions
        assert from_scenario.steps == from_plan.steps

    def test_model_anchor(self):
        result = simulate_plan(scenario_for(), cache=ThroughputCache())
        assert result.model_error < 1e-12
        assert result.sim_time == pytest.approx(result.analytic_time, rel=1e-12)
        assert result.solver == "dp"
        assert len(result.steps) == len(result.decisions)

    def test_step_rows_cover_timeline(self):
        result = simulate_plan(
            scenario_for("allreduce_swing", n=8), cache=ThroughputCache()
        )
        assert [step.index for step in result.steps] == list(
            range(len(result.steps))
        )
        for step in result.steps:
            assert step.end >= step.start
            assert step.duration >= 0
            assert step.decision in ("base", "matched")
        assert result.steps[-1].end == pytest.approx(result.sim_time)
        assert result.communication_time <= result.sim_time + 1e-15

    @pytest.mark.parametrize("rate_method", ["mcf", "maxmin", "equal"])
    def test_utilization_within_capacity(self, rate_method):
        result = simulate_plan(
            scenario_for("allreduce_swing", n=8),
            solver="static",
            rate_method=rate_method,
            check_model=False,
            cache=ThroughputCache(),
        )
        assert result.link_utilization
        for _, utilization in result.link_utilization:
            assert 0.0 < utilization <= 1.0 + 1e-9
        assert result.max_link_utilization == max(
            value for _, value in result.link_utilization
        )

    def test_matched_steps_leave_base_links_idle(self):
        result = simulate_plan(
            scenario_for(n=8), solver="bvn", cache=ThroughputCache()
        )
        assert all(d == "matched" for d in result.decisions)
        assert result.link_utilization == ()

    def test_utilization_can_be_disabled(self):
        result = simulate_plan(
            scenario_for(n=8),
            solver="static",
            collect_utilization=False,
            cache=ThroughputCache(),
        )
        assert result.link_utilization == ()
        assert result.max_link_utilization == 0.0

    def test_physical_accounting(self):
        # ring allreduce repeats one matched permutation; physical
        # accounting prices the repeats at zero.
        scenario = scenario_for("allreduce_ring", n=8, alpha_r=us(50))
        cache = ThroughputCache()
        paper = simulate_plan(scenario, solver="bvn", cache=cache)
        physical = simulate_plan(
            scenario, solver="bvn", accounting="physical", cache=cache
        )
        assert physical.n_reconfigurations == 1
        assert physical.sim_time < paper.sim_time

    def test_rejects_pool_plans(self):
        pooled = plan(scenario_for(n=8), solver="pool", cache=ThroughputCache())
        with pytest.raises(SimulationError, match="pool"):
            simulate_plan(pooled)

    def test_rejects_multiport_scenarios(self):
        scenario = scenario_for("alltoall", n=8).replace(multiport_radix=2)
        with pytest.raises(SimulationError, match="single-port"):
            simulate_plan(scenario, cache=ThroughputCache())

    def test_rejects_solver_alongside_plan_result(self):
        planned = plan(scenario_for(n=8), cache=ThroughputCache())
        with pytest.raises(SimulationError, match="solver"):
            simulate_plan(planned, solver="static")

    def test_rejects_unknown_item_type(self):
        with pytest.raises(SimulationError, match="Scenario or PlanResult"):
            simulate_plan("allreduce")

    def test_rejects_unknown_rate_method_even_without_base_steps(self):
        # An all-matched schedule never reaches the rate allocator, so
        # the typo must be caught up front (and not silently disable
        # the model-check anchor).
        planned = plan(scenario_for(n=8), solver="bvn", cache=ThroughputCache())
        with pytest.raises(SimulationError, match="rate method"):
            simulate_plan(planned, rate_method="mfc")

    def test_divergence_detection(self):
        # A deliberately wrong analytic total must trip the anchor.
        planned = plan(scenario_for(n=8), cache=ThroughputCache())
        import dataclasses

        corrupted = dataclasses.replace(
            planned, total_time=planned.total_time * 2
        )
        with pytest.raises(SimulationError, match="diverged"):
            simulate_plan(corrupted, cache=ThroughputCache())


class TestOverlapPlans:
    """An ``overlap`` plan runs with the compute windows it was priced
    with, so the simulator meets its total at the 1e-9 anchor."""

    @pytest.mark.parametrize("windows", ["scalar", "per-step"])
    def test_sim_equals_the_overlap_model(self, windows):
        scenario = scenario_for(
            "allreduce_swing", n=8, message_size=MiB(1), alpha_r=us(20)
        )
        steps = scenario.build_collective().num_steps
        compute_times = (
            us(30) if windows == "scalar" else [us(7 * i) for i in range(steps)]
        )
        cache = ThroughputCache()
        planned = plan(
            scenario, solver="overlap", compute_times=compute_times, cache=cache
        )
        from_scenario = simulate_plan(
            scenario, solver="overlap", compute_times=compute_times, cache=cache
        )
        from_plan = simulate_plan(planned, cache=cache)
        shipped = simulate_plan(
            PlanResult.from_dict(json.loads(json.dumps(planned.to_dict()))),
            cache=cache,
        )
        for result in (from_scenario, from_plan, shipped):
            assert result.analytic_time == planned.total_time
            assert result.model_error <= 1e-9
        assert from_scenario.steps == from_plan.steps == shipped.steps
        # the windows the plan hid reconfigurations behind are executed
        assert from_plan.sim_time > simulate_plan(scenario, cache=cache).sim_time


class TestSimResultSerialization:
    def test_json_round_trip(self):
        result = simulate_plan(scenario_for(n=8), cache=ThroughputCache())
        rebuilt = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_round_trip_preserves_steps_and_utilization(self):
        result = simulate_plan(
            scenario_for("allreduce_swing", n=8),
            solver="static",
            rate_method="maxmin",
            check_model=False,
            cache=ThroughputCache(),
        )
        rebuilt = SimResult.from_dict(result.to_dict())
        assert rebuilt.steps == result.steps
        assert rebuilt.link_utilization == result.link_utilization
        assert rebuilt.plan.scenario == result.plan.scenario
        assert rebuilt.model_error == result.model_error

    def test_from_dict_names_missing_fields(self):
        from repro.exceptions import ConfigurationError

        data = simulate_plan(scenario_for(n=8), cache=ThroughputCache()).to_dict()
        del data["sim_time"]
        with pytest.raises(ConfigurationError, match="sim_time"):
            SimResult.from_dict(data)

    def test_sim_step_round_trip(self):
        step = SimStep(
            index=3,
            decision="base",
            label="rs t=3",
            reconfiguration=1e-5,
            start=2e-5,
            end=5e-5,
            slowest_pair=(4, 9),
        )
        assert SimStep.from_dict(step.to_dict()) == step
        empty = SimStep(0, "matched", "", 0.0, 0.0, 0.0, None)
        assert SimStep.from_dict(empty.to_dict()) == empty


class TestSimulatePlanGrid:
    def grid(self):
        return scenario_grid(
            scenario_for(n=16, message_size=KiB(64)),
            [KiB(64), MiB(1), MiB(16)],
            [us(1), us(10), us(1000)],
        )

    def test_every_cell_matches_the_model(self):
        grid = self.grid()
        cache = ThroughputCache()
        results = [simulate_plan(scenario, cache=cache) for scenario in grid]
        assert [r.scenario for r in results] == grid
        assert all(r.model_error < 1e-9 for r in results)

    def test_scenario_and_prepared_plan(self):
        scenario = scenario_for(n=8)
        cache = ThroughputCache()
        results = [
            simulate_plan(scenario, solver="dp", cache=cache),
            simulate_plan(plan(scenario, solver="static", cache=cache), cache=cache),
        ]
        assert [r.solver for r in results] == ["dp", "static"]
        assert results[0].sim_time <= results[1].sim_time

    def test_invalid_parallel(self):
        from repro.exceptions import ConfigurationError

        # There is no worker-count knob: a stale one is an unknown
        # solver option.
        with pytest.raises(ConfigurationError, match="parallel"):
            simulate_plan(scenario_for(n=4), parallel=4)


class TestClosedFormCrossValidation:
    """The tentpole's correctness anchor: executing a planned schedule
    on the flow simulator reproduces the literal alpha-beta closed forms
    for static structured topologies (computed here from first
    principles, independently of the library's cost model)."""

    def test_static_ring_allreduce_n16(self):
        n = 16
        message = MiB(8)
        alpha, delta = ns(100), ns(100)
        scenario = Scenario.create(
            "allreduce_ring",
            n=n,
            message_size=message,
            bandwidth=B,
            alpha=alpha,
            delta=delta,
            reconfiguration_delay=us(10),
        )
        result = simulate_plan(
            scenario, solver="static", cache=ThroughputCache()
        )
        # Ring allreduce: 2(n-1) shift-by-one steps of m/n bits each.
        # On the bidirectional ring each direction carries b/2, and the
        # shift-by-one concurrent flow achieves theta = (1/2) n/(n-1)
        # (every pair is one hop; the reverse arcs add capacity).
        theta = 0.5 * n / (n - 1)
        per_step = alpha + delta + (message / n) / (theta * B)
        closed_form = 2 * (n - 1) * per_step
        assert result.sim_time == pytest.approx(closed_form, rel=0.01)
        assert result.n_reconfigurations == 0

    def test_static_ring_planned_allreduce_n16(self):
        # The acceptance-criteria case: the *planned* (DP) schedule on a
        # static ring base agrees with the closed-form Eq. 7 objective.
        result = simulate_plan(
            scenario_for("allreduce_ring", n=16, message_size=MiB(8)),
            solver="dp",
            cache=ThroughputCache(),
        )
        assert result.sim_time == pytest.approx(result.analytic_time, rel=0.01)
        assert result.model_error < 1e-12

    def test_static_hypercube_recursive_doubling_n16(self):
        n, dims = 16, 4
        message = MiB(8)
        alpha, delta = ns(100), ns(100)
        scenario = Scenario.create(
            "allreduce_recursive_doubling",
            n=n,
            message_size=message,
            bandwidth=B,
            alpha=alpha,
            delta=delta,
            reconfiguration_delay=us(10),
            topology="hypercube",
        )
        result = simulate_plan(
            scenario, solver="static", cache=ThroughputCache()
        )
        # Recursive halving/doubling on its native hypercube: 2 log2(n)
        # one-hop steps moving m/2 + m/4 + ... + m/n = m (n-1)/n bits
        # each way, at the per-dimension link rate b/log2(n).
        total_bits_each_way = message * (n - 1) / n
        closed_form = (
            2 * dims * (alpha + delta)
            + 2 * total_bits_each_way * dims / B
        )
        assert result.sim_time == pytest.approx(closed_form, rel=0.01)
        assert result.n_reconfigurations == 0

    def test_static_torus_matches_analytic(self):
        scenario = Scenario.create(
            "allreduce_swing",
            n=16,
            message_size=MiB(1),
            bandwidth=B,
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
            topology="torus",
            topology_options={"dims": [4, 4]},
        )
        result = simulate_plan(
            scenario, solver="static", cache=ThroughputCache()
        )
        assert result.model_error < 1e-12


class TestVectorizedRates:
    """The numpy allocators against a straightforward scalar reference
    (the pre-vectorization algorithm), pinning bit-level behaviour."""

    @staticmethod
    def _reference_maxmin(topology, matching):
        from repro.flows import commodities_from_matching, route_shortest_paths

        commodities = commodities_from_matching(matching)
        routing = route_shortest_paths(topology, commodities, reference_rate=1.0)
        flow_edges = {}
        for index, commodity in enumerate(commodities):
            path = routing.paths[index][0][0]
            flow_edges[(commodity.src, commodity.dst)] = list(
                zip(path, path[1:])
            )
        remaining = {(u, v): c for u, v, c in topology.edges()}
        unfrozen = set(flow_edges)
        rates = {}
        while unfrozen:
            pressure = {}
            for flow in sorted(unfrozen):
                for edge in flow_edges[flow]:
                    pressure[edge] = pressure.get(edge, 0) + 1
            bottleneck = min(pressure, key=lambda e: remaining[e] / pressure[e])
            fair = remaining[bottleneck] / pressure[bottleneck]
            saturated = {
                flow for flow in unfrozen if bottleneck in flow_edges[flow]
            }
            for flow in sorted(saturated):
                rates[flow] = fair
                for edge in flow_edges[flow]:
                    remaining[edge] = max(remaining[edge] - fair, 0.0)
            unfrozen -= saturated
        return rates

    @pytest.mark.parametrize(
        "topology,shift",
        [
            (ring(8, B), 1),
            (ring(8, B), 3),
            (ring(16, B, bidirectional=False), 5),
            (hypercube(16, B), 7),
            (torus((4, 4), B), 6),
        ],
    )
    def test_maxmin_matches_scalar_reference(self, topology, shift):
        matching = Matching.shift(topology.n_ranks, shift)
        reference = self._reference_maxmin(topology, matching)
        flows = allocate_rates(topology, matching, B, method="maxmin")
        assert len(flows) == len(reference)
        for flow in flows:
            assert flow.rate == pytest.approx(
                reference[(flow.src, flow.dst)], rel=1e-12
            )

    def test_maxmin_partial_matching(self):
        topology = ring(8, B)
        matching = Matching(8, [(0, 3), (1, 2), (5, 4)])
        reference = self._reference_maxmin(topology, matching)
        flows = allocate_rates(topology, matching, B, method="maxmin")
        for flow in flows:
            assert flow.rate == pytest.approx(
                reference[(flow.src, flow.dst)], rel=1e-12
            )

    def test_maxmin_large_ring_completes(self):
        # The n=256 case the vectorization exists for.
        topology = ring(256, B)
        flows = allocate_rates(
            topology, Matching.shift(256, 7), B, method="maxmin"
        )
        assert len(flows) == 256
        assert all(flow.rate > 0 for flow in flows)
