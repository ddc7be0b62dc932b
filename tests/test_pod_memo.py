"""The pod pricer's content-keyed memos: reuse, exactness, attribution.

:func:`repro.flows.pod_theta` keys every pod subproblem by its content
(pod size, relabeled edges, commodities, rate) and the coarse problem
by the per-pod uplink totals and the pod-to-pod demand, so re-pricing a
fabric after a change runs LPs only for the subproblems that changed,
with no state for callers to carry.  The exactness claim over
generated perturbation chains lives in
``tests/differential/test_pod_memo_vs_cold.py``; these tests pin the
work the memos avoid for each perturbation kind, the memo primitive's
``peek``, the simulator's fault-to-pod attribution, and the daemon's
``metrics`` surface.
"""

from __future__ import annotations

import asyncio
import math
import threading
from concurrent.futures import Future

import pytest

from repro.control import OnlineController
from repro.exceptions import ConfigurationError
from repro.fabric import FaultEvent
from repro.fabric.degradation import FabricHealth
from repro.flows import (
    ThroughputCache,
    block_stats,
    commodities_from_matching,
    max_concurrent_flow,
    pod_theta,
    reset_block_stats,
)
from repro.flows import block
from repro.flows.block import _clear_block_memos, changed_pods
from repro.matching import Matching
from repro.memo import BoundedMemo
from repro.planner import Scenario
from repro.sim import FlowLevelSimulator, simulate_plan
from repro.topology import PodFabric, ring
from repro.units import Gbps, MiB
from repro.workload import Workload, plan_workload

RATE = Gbps(800)
TOL = 1e-9
N = 16
PODS = 4


def fabric(uplink_multipliers=()) -> PodFabric:
    """Four 4-rank ring pods; local ranks 0 and 1 are the gateways."""
    return PodFabric(
        pod_sizes=(N // PODS,) * PODS,
        bandwidth=RATE,
        uplinks_per_pod=2,
        uplink_multipliers=uplink_multipliers,
    )


def flat_theta(topology, matching) -> float:
    return max_concurrent_flow(
        topology, commodities_from_matching(matching), RATE
    ).theta


def cleared_theta(topology, matching) -> float:
    """The same price on cleared memos: no reuse at all."""
    _clear_block_memos()
    return pod_theta(topology, matching, RATE)


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


#: Every pod sends intra-pod pairs and one pair to the next pod.
SHIFT = Matching.shift(N, 1)
#: Pod 1's intra-pod pairs drift; its cross-pod pair and every other
#: pod's demand stay as in SHIFT.
DRIFTED = Matching(
    N,
    [(i, (i + 1) % N) for i in range(N) if i not in (4, 5, 6)]
    + [(4, 6), (6, 5), (5, 7)],
)

#: kind -> (perturbed topology, matching, changed pods, coarse changed)
PERTURBATIONS = {
    "dimmed-rank": (
        FabricHealth(port_multipliers={7: 0.5}).apply(fabric().flat_topology()),
        SHIFT,
        {1},
        False,
    ),
    "dimmed-gateway-rank": (
        FabricHealth(port_multipliers={4: 0.5}).apply(fabric().flat_topology()),
        SHIFT,
        {1},
        True,
    ),
    "failed-intra-pod-lane": (
        FabricHealth(failed_transceivers=((5, 6),)).apply(fabric().flat_topology()),
        SHIFT,
        {1},
        False,
    ),
    "uplink-multiplier": (
        fabric(uplink_multipliers=(1.0, 0.5, 1.0, 1.0)).flat_topology(),
        SHIFT,
        {1},
        True,
    ),
    "lost-wavelength": (
        FabricHealth(dead_wavelengths=1, total_wavelengths=4).apply(
            fabric().flat_topology()
        ),
        SHIFT,
        {0, 1, 2, 3},
        True,
    ),
    "demand-drift": (fabric().flat_topology(), DRIFTED, {1}, False),
}


class TestBoundedMemoPeek:
    def test_peek_never_computes(self):
        memo: BoundedMemo[int] = BoundedMemo(4)
        assert memo.peek("a") is None
        assert len(memo) == 0
        memo.get_or_compute("a", lambda: 7)
        assert memo.peek("a") == 7
        stats = memo.stats()
        assert (stats.hits, stats.misses, stats.size) == (1, 1, 1)

    def test_peek_does_not_wait_on_an_in_flight_entry(self):
        memo: BoundedMemo[int] = BoundedMemo()
        started, release = threading.Event(), threading.Event()

        def slow() -> int:
            started.set()
            release.wait(5)
            return 3

        owner = threading.Thread(target=memo.get_or_compute, args=("k", slow))
        owner.start()
        assert started.wait(5)
        assert memo.peek("k") is None  # in flight: absent, no blocking
        release.set()
        owner.join(5)
        assert memo.peek("k") == 3
        assert not isinstance(memo.peek("k"), Future)

    def test_peek_refreshes_recency(self):
        memo: BoundedMemo[int] = BoundedMemo(2)
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        assert memo.peek("a") == 1  # "b" is now least recently used
        memo.get_or_compute("c", lambda: 3)
        assert memo.peek("a") == 1
        assert memo.peek("b") is None


class TestContentKeys:
    def test_equal_pods_share_one_bounds_computation(self):
        _clear_block_memos()
        pod_theta(fabric().flat_topology(), SHIFT, RATE)
        # Four equal pods with equal commodities are one subproblem.
        assert len(block._bounds_memo) <= 1
        assert len(block._exact_memo) <= 2  # the pod and the coarse star

    def test_repeat_price_runs_no_lp_and_builds_no_subgraph(self, monkeypatch):
        topology = fabric().flat_topology()
        _clear_block_memos()
        first = pod_theta(topology, SHIFT, RATE)
        built = []
        original = block.Topology

        def counted(*args, **kwargs):
            built.append(kwargs.get("name"))
            return original(*args, **kwargs)

        monkeypatch.setattr(block, "Topology", counted)
        reset_block_stats()
        assert pod_theta(topology, SHIFT, RATE) == first
        assert block_stats().pod_solves == 0
        assert built == []

    def test_keys_ignore_pod_position(self):
        """A pod subproblem moved to another pod index is the same key."""
        sizes = (4, 4)
        topology = PodFabric(
            pod_sizes=sizes, bandwidth=RATE, uplinks_per_pod=2
        ).flat_topology()
        _clear_block_memos()
        pod_theta(topology, Matching(8, [(0, 1), (1, 2)]), RATE)
        bound_misses = block._bounds_memo.stats().misses
        reset_block_stats()
        pod_theta(topology, Matching(8, [(4, 5), (5, 6)]), RATE)
        assert block_stats().pod_solves == 0
        assert block._bounds_memo.stats().misses == bound_misses

    def test_empty_matching_is_inf(self):
        topology = fabric().flat_topology()
        assert math.isinf(pod_theta(topology, Matching(N, []), RATE))

    def test_flat_topology_falls_back(self):
        topology = ring(8, RATE)
        matching = Matching.shift(8, 1)
        reset_block_stats()
        value = pod_theta(topology, matching, RATE)
        assert block_stats().flat_fallbacks == 1
        assert math.isclose(value, flat_theta(topology, matching), rel_tol=TOL)


class TestRepriceRunsOnlyChangedPods:
    """After the pristine fabric is priced, re-pricing a perturbation
    runs LPs only for pods whose subproblem changed, plus the coarse
    problem only when its star or its demand changed."""

    @pytest.mark.parametrize("kind", list(PERTURBATIONS))
    def test_reprice(self, kind, monkeypatch):
        topology, matching, changed, coarse_changed = PERTURBATIONS[kind]
        base = fabric().flat_topology()
        expected = cleared_theta(topology, matching)
        _clear_block_memos()
        pod_theta(base, SHIFT, RATE)

        solved = []
        solve = block._solve_subproblem

        def recorded(subgraph, commodities, rate):
            solved.append(subgraph.name.rsplit("|", 1)[1])
            return solve(subgraph, commodities, rate)

        monkeypatch.setattr(block, "_solve_subproblem", recorded)
        reset_block_stats()
        bound_misses = block._bounds_memo.stats().misses
        value = pod_theta(topology, matching, RATE)

        allowed = {f"pod{p}" for p in changed}
        if coarse_changed:
            allowed.add("coarse")
        assert set(solved) <= allowed, solved
        assert len(solved) == len(set(solved))  # each subproblem at most once
        stats = block_stats()
        assert stats.pod_solves == len(solved)
        # Every untouched pod is served from the memo or screened.
        assert stats.memo_hits + stats.pods_screened >= PODS - len(changed)
        # Bounds are recomputed for changed pods only (equal changed
        # pods share one computation).
        assert block._bounds_memo.stats().misses - bound_misses <= len(changed)
        assert math.isclose(value, expected, rel_tol=TOL)
        assert math.isclose(value, flat_theta(topology, matching), rel_tol=TOL)

    @pytest.mark.parametrize(
        "kind", [k for k in PERTURBATIONS if k != "demand-drift"]
    )
    def test_changed_pods_names_the_perturbed_pods(self, kind):
        topology, _, changed, _ = PERTURBATIONS[kind]
        base = fabric().flat_topology()
        assert changed_pods(base, topology) == tuple(sorted(changed))
        assert changed_pods(topology, base) == tuple(sorted(changed))
        assert changed_pods(topology, topology) == ()

    def test_changed_pods_is_empty_on_flat_fabrics(self):
        assert changed_pods(ring(8, RATE), ring(8, RATE)) == ()


class TestFaultPodAttribution:
    """``fault_pod_log`` names the pods whose edges a transition changed:
    the pod of a dimmed rank or a failed lane, every pod for a lost
    wavelength, and the same pods again on the repair."""

    def _planned(self):
        from repro.planner.registry import plan

        return plan(pod_scenario())

    @pytest.mark.parametrize(
        "health, pods",
        [
            (FabricHealth(port_multipliers={7: 0.5}), (1,)),
            (FabricHealth(port_multipliers={4: 0.5}), (1,)),
            (FabricHealth(failed_transceivers=((5, 6),)), (1,)),
            (FabricHealth(dead_wavelengths=1, total_wavelengths=4), (0, 1, 2)),
            (FabricHealth(port_multipliers={1: 0.5, 9: 0.25}), (0, 2)),
        ],
        ids=["dimmed-rank", "dimmed-gateway-rank", "failed-lane", "wavelength",
             "two-pods"],
    )
    def test_inject_and_repair_name_the_pods(self, health, pods):
        planned = self._planned()
        repair_at = simulate_plan(planned).steps[3].end
        result = simulate_plan(
            planned,
            faults=[
                FaultEvent(time=0.0, health=health),
                FaultEvent(time=repair_at, health=None),
            ],
        )
        assert [kind for _, kind, _ in result.fault_log] == ["inject", "repair"]
        assert [p for _, p in result.fault_pod_log] == [pods, pods]

    def test_fault_pod_log_names_the_pod(self):
        planned = self._planned()
        dim = FabricHealth(port_multipliers={5: 0.5}, name="dim5")
        result = simulate_plan(
            planned, faults=[FaultEvent(time=0.0, health=dim)]
        )
        assert [kind for _, kind, _ in result.fault_log] == ["inject"]
        assert [pods for _, pods in result.fault_pod_log] == [(1,)]
        roundtrip = type(result).from_dict(result.to_dict())
        assert roundtrip.fault_pod_log == result.fault_pod_log

    def test_flat_fabric_logs_no_pods(self):
        from repro.planner.registry import plan

        planned = plan(flat_scenario())
        dim = FabricHealth(port_multipliers={5: 0.5})
        result = simulate_plan(planned, faults=[FaultEvent(time=0.0, health=dim)])
        assert len(result.fault_log) == 1
        assert result.fault_pod_log == ()

    def test_repair_then_refail_same_pod_mttr(self):
        """MTTR cycle: inject, repair, re-inject the same pod mid-run.

        Every segment of the run must price exactly like a fabric whose
        condition was *declared* up front — the model anchor, held at
        1e-9 across each transition: per-step durations in faulted
        segments equal the always-faulted reference, durations in the
        repaired window equal the pristine reference.
        """
        scenario = pod_scenario()
        planned = self._planned()
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


class TestWorkloads:
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

    @pytest.mark.parametrize("policy", ["replan", "hysteresis", "oracle"])
    def test_warm_memos_plan_like_cleared_memos(self, policy):
        workload = self._workload()
        _clear_block_memos()
        cold = plan_workload(workload, policy=policy, cache=ThroughputCache())
        reset_block_stats()
        warm = plan_workload(workload, policy=policy, cache=ThroughputCache())
        # The second pass prices every phase from the pod memos.
        assert block_stats().pod_solves == 0
        assert warm.total_time == cold.total_time
        assert [p.decisions for p in warm.phases] == [
            p.decisions for p in cold.phases
        ]

    def test_plan_workload_takes_no_plan_context(self):
        with pytest.raises(ConfigurationError, match="plan_context"):
            plan_workload(
                Workload(phases=(pod_scenario(),)),
                cache=ThroughputCache(),
                plan_context=object(),
            )

    def test_online_controller_takes_no_plan_context(self):
        with pytest.raises(TypeError):
            OnlineController(plan_context=object())


class TestDaemonMetrics:
    def test_metrics_have_block_and_no_incremental_section(self):
        from repro.service import PlannerDaemon, ServiceRequest
        from repro.service.schemas import PlanBody

        async def run() -> list[dict]:
            snapshots = []
            async with PlannerDaemon() as daemon:
                dim = FabricHealth(port_multipliers={5: 0.5})
                for health in (None, dim):
                    response = await daemon.submit(
                        ServiceRequest(body=PlanBody(scenario=pod_scenario(health)))
                    )
                    assert response.ok, response.error
                    snapshots.append(daemon.metrics())
            return snapshots

        _clear_block_memos()
        first, second = asyncio.run(run())
        assert "incremental" not in second
        block_section = second["block"]
        assert {"pod_solves", "memo_hits", "pods_screened"} <= set(block_section)
        # The dimmed condition re-uses the untouched pods' values.
        assert block_section["memo_hits"] > first["block"]["memo_hits"]

    def test_block_spelled_wire_requests_take_the_exact_route(self):
        """Clients that still send ``"theta_method": "block"`` are
        served the exact pod plan, priced from the pod memos."""
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
                return results, daemon.metrics()

        _clear_block_memos()
        results, metrics = asyncio.run(run())
        assert results[1] == results[2]
        assert results[1]["scenario"]["theta_method"] == "auto"
        assert "incremental" not in metrics
        assert metrics["block"]["memo_hits"] > 0

    def test_bound_priced_and_flat_requests_run_no_pod_lp(self):
        from repro.service import PlannerDaemon, ServiceRequest
        from repro.service.schemas import PlanBody, WorkloadBody

        async def run() -> tuple[dict, dict]:
            async with PlannerDaemon() as daemon:
                before = daemon.metrics()["block"]
                for scenario in (flat_scenario(), pod_scenario(theta_method="sp")):
                    response = await daemon.submit(
                        ServiceRequest(body=PlanBody(scenario=scenario))
                    )
                    assert response.ok, response.error
                after = daemon.metrics()["block"]
                assert after["pod_solves"] == before["pod_solves"]
                dim = FabricHealth(port_multipliers={5: 0.5})
                workload = Workload(phases=(pod_scenario(), pod_scenario(dim)))
                response = await daemon.submit(
                    ServiceRequest(body=WorkloadBody(workload=workload))
                )
                assert response.ok, response.error
                return after, daemon.metrics()["block"]

        _clear_block_memos()
        before, after = asyncio.run(run())
        # A plain replan workload on a pod fabric prices through the
        # pod memos: the dimmed phase re-uses the untouched pods.
        assert after["pod_solves"] > before["pod_solves"]
        assert after["memo_hits"] > before["memo_hits"]
