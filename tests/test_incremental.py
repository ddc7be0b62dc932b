"""Delta-aware incremental replanning: diffing, contexts, policies, faults.

The exactness claim (delta == cold at 1e-9) is pinned against generated
perturbation chains in ``tests/differential/test_delta_vs_cold.py``;
these tests pin the surrounding machinery — the :class:`DeltaIndex`
attribution rules, the :class:`PlanContext` reuse accounting, delta
prewarming inside ``plan_workload``, the delta-aware engine entry, cache seeding, the simulator's fault-to-pod attribution,
and the daemon's resident lineage contexts.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.engine import PlanContext, compute_theta_delta, fabric_state_for
from repro.engine.incremental import (
    prewarm_scenario_context,
    scenario_lineage,
)
from repro.exceptions import FlowError
from repro.fabric import FaultEvent
from repro.fabric.degradation import FabricHealth
from repro.flows import (
    DeltaIndex,
    FabricState,
    PodDelta,
    ThroughputCache,
    compute_theta,
    incremental_stats,
    pod_structure,
    pod_theta,
    pod_theta_parts,
    reset_incremental_stats,
)
from repro.matching import Matching
from repro.planner import Scenario
from repro.sim import FlowLevelSimulator, simulate_plan
from repro.topology import PodFabric, ring
from repro.units import Gbps, MiB
from repro.workload import Workload, plan_workload

RATE = Gbps(800)
TOL = 1e-9


def fabric(sizes=(4, 4, 4), **kwargs) -> PodFabric:
    kwargs.setdefault("uplinks_per_pod", 2)
    return PodFabric(pod_sizes=tuple(sizes), bandwidth=RATE, **kwargs)


def structure_of(f: PodFabric):
    return pod_structure(f.flat_topology())


def pod_scenario(health=None, theta_method="auto") -> Scenario:
    return Scenario.create(
        "alltoall",
        n=12,
        message_size=MiB(4),
        alpha=1e-6,
        delta=5e-9,
        reconfiguration_delay=10e-6,
        bandwidth=RATE,
        topology="podfabric",
        topology_options={"pods": 3},
        theta_method=theta_method,
        health=health,
    )


def flat_scenario() -> Scenario:
    return Scenario.create(
        "alltoall",
        n=12,
        message_size=MiB(4),
        alpha=1e-6,
        delta=5e-9,
        reconfiguration_delay=10e-6,
        bandwidth=RATE,
    )


class TestDeltaIndex:
    def test_pristine_transitions_are_nothing(self):
        index = DeltaIndex(structure_of(fabric()))
        assert index.diff_health(None, None).is_empty
        assert index.diff_health(None, FabricHealth()).is_empty
        assert index.diff_health(
            FabricHealth(port_multipliers={1: 0.5}),
            FabricHealth(port_multipliers={1: 0.5}, name="relabeled"),
        ).is_empty

    def test_port_multiplier_dirties_owning_pod(self):
        index = DeltaIndex(structure_of(fabric()))
        delta = index.diff_health(
            None, FabricHealth(port_multipliers={5: 0.5})
        )
        assert delta.dirty_pods == frozenset({1})
        assert delta.coarse_dirty  # rank 5's uplinks scale too
        assert not delta.full

    def test_failed_intra_pod_lane_leaves_coarse_clean(self):
        index = DeltaIndex(structure_of(fabric()))
        delta = index.diff_health(
            None, FabricHealth(failed_transceivers=((4, 5),))
        )
        assert delta.dirty_pods == frozenset({1})
        assert not delta.coarse_dirty
        assert not delta.full

    def test_wavelength_change_voids_reuse(self):
        index = DeltaIndex(structure_of(fabric()))
        delta = index.diff_health(
            None, FabricHealth(dead_wavelengths=1, total_wavelengths=4)
        )
        assert delta.full and delta.coarse_dirty

    def test_cross_pod_lane_voids_reuse(self):
        index = DeltaIndex(structure_of(fabric()))
        delta = index.diff_health(
            None, FabricHealth(failed_transceivers=((3, 4),))
        )
        assert delta.full

    def test_uplink_diff_dirties_pod_and_coarse(self):
        index = DeltaIndex(structure_of(fabric()))
        delta = index.diff_uplinks((1.0, 1.0, 1.0), (1.0, 0.5, 1.0))
        assert delta.dirty_pods == frozenset({1})
        assert delta.coarse_dirty
        assert index.diff_uplinks((0.5,), (0.5, 1.0)).is_empty  # 1.0 pads
        assert index.diff_uplinks((), (1.0, 1.0, 1.0, 1.0)).full

    def test_state_diff_requires_same_base(self):
        index = DeltaIndex(structure_of(fabric()))
        a = FabricState(base_key="a")
        b = FabricState(base_key="b")
        assert index.diff_states(a, b).full
        assert index.diff_states(a, FabricState(base_key="a")).is_empty

    def test_matching_diff_localizes_demand_drift(self):
        index = DeltaIndex(structure_of(fabric()))
        old = Matching(12, [(0, 1), (4, 5), (8, 9)])
        new = Matching(12, [(0, 1), (4, 6), (8, 9)])  # pod 1 drifted
        delta = index.diff_matchings(old, new)
        assert delta.dirty_pods == frozenset({1})
        assert not delta.coarse_dirty
        assert index.diff_matchings(old, old).is_empty
        cross = Matching(12, [(0, 1), (4, 5), (8, 2)])
        assert index.diff_matchings(old, cross).coarse_dirty

    def test_merge_is_conservative(self):
        one = PodDelta(dirty_pods=frozenset({0}))
        two = PodDelta(dirty_pods=frozenset({2}), coarse_dirty=True)
        merged = one.merge(two)
        assert merged.dirty_pods == frozenset({0, 2})
        assert merged.coarse_dirty
        assert one.merge(PodDelta.everything("x")).full


class TestPodThetaParts:
    def test_cold_parts_equal_pod_theta(self):
        topology = fabric().flat_topology()
        for matching in (Matching.shift(12, 1), Matching.shift(12, 5)):
            parts = pod_theta_parts(topology, matching, RATE)
            assert math.isclose(
                parts.theta, pod_theta(topology, matching, RATE), rel_tol=TOL
            )

    def test_empty_matching_is_inf(self):
        parts = pod_theta_parts(fabric().flat_topology(), Matching(12, []), RATE)
        assert math.isinf(parts.theta)
        assert parts.pods == (None,) * 3

    def test_flat_topology_raises(self):
        with pytest.raises(FlowError, match="pod structure"):
            pod_theta_parts(ring(8, RATE), Matching.shift(8, 1), RATE)

    def test_screened_parts_hold_certified_bounds(self):
        topology = fabric().flat_topology()
        matching = Matching.shift(12, 5)
        parts = pod_theta_parts(topology, matching, RATE)
        for part in parts.pods:
            if part is not None and not part.exact:
                assert part.value >= parts.theta - TOL

    def test_delta_reuse_counts_clean_pods(self):
        reset_incremental_stats()
        base = fabric().flat_topology()
        matching = Matching.shift(12, 1)  # intra-pod only on (4,4,4) rings
        prev = pod_theta_parts(base, matching, RATE)
        health = FabricHealth(port_multipliers={0: 0.5})
        structure = pod_structure(base)
        delta = DeltaIndex(structure).diff_health(None, health)
        parts = pod_theta_parts(
            health.apply(base), matching, RATE, prev=prev, delta=delta
        )
        cold = pod_theta(health.apply(base), matching, RATE)
        assert math.isclose(parts.theta, cold, rel_tol=TOL)
        stats = incremental_stats()
        assert stats.delta_solves == 1
        assert stats.dirty_pods_solved >= 1
        assert stats.clean_pods_reused + stats.pods_screened >= 1
        assert 0.0 < stats.reuse_ratio < 1.0


class TestPlanContext:
    def test_repeat_price_is_a_context_hit(self):
        reset_incremental_stats()
        topology = fabric().flat_topology()
        matching = Matching.shift(12, 5)
        state = FabricState(base_key="f")
        context = PlanContext()
        first = context.price(topology, matching, RATE, state)
        second = context.price(topology, matching, RATE, state)
        assert first == second
        assert incremental_stats().context_hits == 1
        assert len(context) == 1
        context.clear()
        assert len(context) == 0

    def test_flat_topology_falls_back(self):
        topology = ring(8, RATE)
        matching = Matching.shift(8, 1)
        context = PlanContext()
        value = context.price(
            topology, matching, RATE, FabricState(base_key="r")
        )
        assert math.isclose(value, pod_theta(topology, matching, RATE), rel_tol=TOL)
        assert len(context) == 0  # nothing to remember for flat fabrics

    def test_maxsize_bounds_entries(self):
        topology = fabric().flat_topology()
        state = FabricState(base_key="f")
        context = PlanContext(maxsize=2)
        for k in (1, 2, 3):
            context.price(topology, Matching.shift(12, k), RATE, state)
        assert len(context) == 2


class TestComputeThetaDelta:
    def test_matches_cold_block_and_shares_cache(self):
        topology = fabric().flat_topology()
        matching = Matching.shift(12, 5)
        cache = ThroughputCache()
        context = PlanContext()
        state = FabricState(base_key="f")
        value = compute_theta_delta(
            topology, matching, RATE, context=context, state=state, cache=cache
        )
        cold = compute_theta(topology, matching, RATE, cache=cache)
        assert cold == value
        assert math.isclose(
            value, pod_theta(topology, matching, RATE), rel_tol=TOL
        )
        # The cold call above must have been a pure cache hit on the
        # delta-published entry.
        assert cache.stats().hits >= 1

    def test_without_context_is_cold_block(self):
        topology = fabric().flat_topology()
        matching = Matching.shift(12, 1)
        value = compute_theta_delta(topology, matching, RATE, cache=None)
        assert math.isclose(
            value, pod_theta(topology, matching, RATE), rel_tol=TOL
        )

    def test_missing_rate_raises(self):
        topology = fabric().flat_topology()
        bare = ring(8, RATE)
        bare = type(bare)(8, list(bare.edges()), name="bare")  # no metadata
        with pytest.raises(FlowError, match="reference_rate"):
            compute_theta_delta(bare, Matching.shift(8, 1), cache=None)


class TestDeltaPolicies:
    def _workload(self) -> Workload:
        dim = FabricHealth(port_multipliers={5: 0.5})
        dim_more = FabricHealth(port_multipliers={5: 0.5, 9: 0.25})
        return Workload(
            phases=(
                pod_scenario(),
                pod_scenario(dim),
                pod_scenario(dim_more),
                pod_scenario(),
            )
        )

    @pytest.mark.parametrize("policy", ["replan", "hysteresis"])
    def test_plan_context_matches_plain_planning(self, policy):
        workload = self._workload()
        base = plan_workload(workload, policy=policy, cache=ThroughputCache())
        delta = plan_workload(
            workload,
            policy=policy,
            cache=ThroughputCache(),
            plan_context=PlanContext(),
        )
        assert math.isclose(
            base.total_time, delta.total_time, rel_tol=TOL
        )
        assert [p.decisions for p in base.phases] == [
            p.decisions for p in delta.phases
        ]

    def test_plan_context_actually_delta_solves(self):
        reset_incremental_stats()
        plan_workload(
            self._workload(),
            policy="replan",
            cache=ThroughputCache(),
            plan_context=PlanContext(),
        )
        stats = incremental_stats()
        assert stats.delta_solves > 0
        assert stats.clean_pods_reused + stats.pods_screened > 0

    def test_external_context_carries_across_calls(self):
        context = PlanContext()
        workload = self._workload()
        cache = ThroughputCache()
        plan_workload(
            workload, policy="replan", cache=cache, plan_context=context
        )
        assert len(context) > 0
        reset_incremental_stats()
        plan_workload(
            workload, policy="replan", cache=ThroughputCache(),
            plan_context=context,
        )
        # Same workload through the same context: every step is either
        # a context hit or a delta solve, never a cold solve.
        assert incremental_stats().full_solves == 0


class TestScenarioLineage:
    def test_health_and_uplinks_share_a_lineage(self):
        base = pod_scenario()
        dim = pod_scenario(FabricHealth(port_multipliers={5: 0.5}))
        assert scenario_lineage(base) == scenario_lineage(dim)
        assert fabric_state_for(base).key() != fabric_state_for(dim).key()

    def test_different_fabric_is_a_different_lineage(self):
        a = pod_scenario()
        b = Scenario.create(
            "alltoall",
            n=16,
            message_size=MiB(4),
            alpha=1e-6,
            delta=5e-9,
            reconfiguration_delay=10e-6,
            bandwidth=RATE,
            topology="podfabric",
            topology_options={"pods": 4},
        )
        assert scenario_lineage(a) != scenario_lineage(b)

    def test_prewarm_seeds_step_values(self):
        scenario = pod_scenario()
        cache = ThroughputCache()
        context = PlanContext()
        seeded = prewarm_scenario_context(scenario, context, cache=cache)
        assert seeded > 0
        assert len(context) == seeded
        # Bound-priced scenarios and flat fabrics are a no-op.
        assert (
            prewarm_scenario_context(
                pod_scenario(theta_method="sp"), PlanContext(), cache=cache
            )
            == 0
        )
        assert prewarm_scenario_context(flat_scenario(), PlanContext(), cache=cache) == 0


class TestFaultPodAttribution:
    def _sim_pieces(self):
        scenario = pod_scenario()
        from repro.planner.registry import plan

        planned = plan(scenario)
        return scenario, planned

    def test_fault_pod_log_names_the_pod(self):
        scenario, planned = self._sim_pieces()
        dim = FabricHealth(port_multipliers={5: 0.5}, name="dim5")
        result = simulate_plan(
            planned, faults=[FaultEvent(time=0.0, health=dim)]
        )
        assert [kind for _, kind, _ in result.fault_log] == ["inject"]
        assert [pods for _, pods in result.fault_pod_log] == [(1,)]
        roundtrip = type(result).from_dict(result.to_dict())
        assert roundtrip.fault_pod_log == result.fault_pod_log

    def test_repair_then_refail_same_pod_mttr(self):
        """MTTR cycle: inject, repair, re-inject the same pod mid-run.

        Every segment of the run must price exactly like a fabric whose
        condition was *declared* up front — the model anchor, held at
        1e-9 across each transition: per-step durations in faulted
        segments equal the always-faulted reference, durations in the
        repaired window equal the pristine reference.
        """
        scenario, planned = self._sim_pieces()
        topology = scenario.build_topology()
        collective = scenario.build_collective()
        simulator = FlowLevelSimulator(topology, scenario.cost)
        pristine = simulator.run(collective, planned.schedule)
        dim = FabricHealth(port_multipliers={5: 0.5}, name="dim5")
        declared = FlowLevelSimulator(
            topology, scenario.cost, health=dim
        ).run(collective, planned.schedule)
        # Anchor 1: a t=0 injection equals the declared condition.
        injected = simulator.run(
            collective,
            planned.schedule,
            faults=[FaultEvent(time=0.0, health=dim)],
        )
        assert math.isclose(
            injected.total_time, declared.total_time, rel_tol=TOL
        )
        # Anchor 2: inject -> repair -> re-inject, pod 1 throughout.
        # The repair point comes from the faulted timeline; the refail
        # point from a rehearsal with inject+repair only, so both land
        # strictly inside the run.
        repair_at = declared.steps[3].end
        rehearsal = simulator.run(
            collective,
            planned.schedule,
            faults=[
                FaultEvent(time=0.0, health=dim),
                FaultEvent(time=repair_at, health=None),
            ],
        )
        refail_at = rehearsal.steps[-3].end
        assert refail_at > repair_at
        mttr = simulator.run(
            collective,
            planned.schedule,
            faults=[
                FaultEvent(time=0.0, health=dim),
                FaultEvent(time=repair_at, health=None),
                FaultEvent(time=refail_at, health=dim),
            ],
        )
        assert [kind for _, kind, _ in mttr.fault_log] == [
            "inject",
            "repair",
            "inject",
        ]
        assert all(pods == (1,) for _, pods in mttr.fault_pod_log)
        # Segment anchor: each step ran either at declared-faulted or
        # pristine rates, decided by the transitions actually applied.
        transitions = list(mttr.fault_log)
        for index, step in enumerate(mttr.steps):
            applied = [t for t, _, _ in transitions if t <= step.start]
            faulted = bool(applied) and transitions[len(applied) - 1][1] == "inject"
            reference = declared if faulted else pristine
            assert math.isclose(
                step.duration,
                reference.steps[index].duration,
                rel_tol=TOL,
            ), f"step {index} (faulted={faulted})"


class TestDaemonIncrementalMetrics:
    def test_metrics_surface_block_and_incremental_sections(self):
        from repro.service import PlannerDaemon, ServiceRequest
        from repro.service.schemas import PlanBody

        async def run() -> dict:
            reset_incremental_stats()
            async with PlannerDaemon() as daemon:
                dim = FabricHealth(port_multipliers={5: 0.5})
                for health in (None, dim):
                    response = await daemon.submit(
                        ServiceRequest(body=PlanBody(scenario=pod_scenario(health)))
                    )
                    assert response.ok, response.error
                return daemon.metrics()

        metrics = asyncio.run(run())
        block = metrics["block"]
        assert {"pod_solves", "memo_hits", "pods_screened"} <= set(block)
        incremental = metrics["incremental"]
        assert incremental["contexts"] == 1
        assert incremental["delta_solves"] > 0
        assert 0.0 <= incremental["reuse_ratio"] <= 1.0

    def test_block_spelled_wire_requests_take_the_exact_route(self):
        """Clients that still send ``"theta_method": "block"`` are
        served the exact pod plan through the lineage's context."""
        from repro.service import PlannerDaemon, ServiceRequest
        from repro.service.schemas import PlanBody

        dim = FabricHealth(port_multipliers={5: 0.5})

        def request(health, spelling):
            data = ServiceRequest(
                body=PlanBody(scenario=pod_scenario(health))
            ).to_dict()
            data["body"]["scenario"]["theta_method"] = spelling
            return ServiceRequest.from_dict(data)

        async def run():
            reset_incremental_stats()
            results = []
            async with PlannerDaemon() as daemon:
                for health, spelling in (
                    (None, "block"),
                    (dim, "block"),
                    (dim, "auto"),
                ):
                    response = await daemon.submit(request(health, spelling))
                    assert response.ok, response.error
                    result = dict(response.result)
                    result.pop("cache_stats", None)
                    results.append(result)
                return results, daemon.metrics()["incremental"]

        results, incremental = asyncio.run(run())
        assert results[1] == results[2]
        assert results[1]["scenario"]["theta_method"] == "auto"
        assert incremental["contexts"] == 1
        assert incremental["delta_solves"] > 0

    def test_only_exact_pod_scenarios_take_a_context(self):
        from repro.service import PlannerDaemon, ServiceRequest
        from repro.service.schemas import PlanBody, WorkloadBody

        flat = flat_scenario()

        async def run() -> dict:
            reset_incremental_stats()
            async with PlannerDaemon() as daemon:
                for scenario in (flat, pod_scenario(theta_method="sp")):
                    response = await daemon.submit(
                        ServiceRequest(body=PlanBody(scenario=scenario))
                    )
                    assert response.ok, response.error
                assert daemon.metrics()["incremental"]["contexts"] == 0
                dim = FabricHealth(port_multipliers={5: 0.5})
                workload = Workload(phases=(pod_scenario(), pod_scenario(dim)))
                response = await daemon.submit(
                    ServiceRequest(body=WorkloadBody(workload=workload))
                )
                assert response.ok, response.error
                return daemon.metrics()

        incremental = asyncio.run(run())["incremental"]
        # A plain replan workload on a pod fabric delta-prices through
        # the lineage's resident context.
        assert incremental["contexts"] == 1
        assert incremental["delta_solves"] > 0
