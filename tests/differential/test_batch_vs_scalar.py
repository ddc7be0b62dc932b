"""Each batch entry point equals a loop of its scalar twin.

``plan_many`` / ``sim_many`` / ``workload_many`` / ``plan_workload_many``
run their items in one serial loop over a shared cache.  The sharing may
not show in the scientific payload: a batch must return exactly what
``plan`` / ``simulate_plan`` / ``simulate_workload`` / ``plan_workload``
return item by item on a fresh cache.  ``plan_many`` does nothing
before that loop either, so on a fresh cache of its own it also counts
exactly the cache hits and misses a loop of ``plan`` counts.  The
batches mix the cells that stress the engine hardest — closed-form
grids, degraded fabrics (LP families), a pod fabric and a bound-priced
cell.
"""

from __future__ import annotations

import pytest

from repro.engine import plan_many, plan_workload_many, sim_many, workload_many
from repro.fabric.degradation import random_failures, uniform_degradation
from repro.flows import ThroughputCache
from repro.planner import Scenario, plan
from repro.sim import simulate_plan, simulate_workload
from repro.units import KiB, MiB, ns, us
from repro.workload import Workload, plan_workload


def base_scenario(n=8, algorithm="allreduce_recursive_doubling"):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=MiB(1),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def mixed_scenarios():
    """Pristine closed-form cells, degraded LP cells, a pod-fabric cell
    and a bound-priced cell."""
    base = base_scenario()
    return [
        base,
        base.replace(message_size=KiB(64), name="small"),
        base.replace(message_size=MiB(16), name="large"),
        base.replace(health=uniform_degradation(8, 0.75), name="dim"),
        base.replace(health=random_failures(8, seed=5), name="faulty"),
        Scenario.create(
            "allreduce_recursive_doubling",
            n=8,
            message_size=MiB(1),
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=us(10),
            topology="podfabric",
            topology_options={"pods": 2, "uplinks_per_pod": 2},
            name="pods",
        ),
        base.replace(theta_method="sp", name="sp-priced"),
    ]


def alltoall_grid():
    """A 2x2 grid (message size x reconfiguration delay) of one n=16
    ``alltoall``: every cell asks for the same 15 ring shifts."""
    return [
        Scenario.create(
            "alltoall",
            n=16,
            message_size=size,
            alpha=ns(100),
            delta=ns(100),
            reconfiguration_delay=delay,
        )
        for size in (KiB(64), MiB(4))
        for delay in (us(1), us(10))
    ]


GRIDS = {"mixed": mixed_scenarios, "alltoall": alltoall_grid}


def mixed_workloads():
    base = base_scenario()
    return [
        Workload(
            phases=(
                base.replace(message_size=MiB(1), name="p0"),
                base.replace(message_size=MiB(16), name="p1"),
                base.replace(
                    message_size=MiB(4),
                    health=uniform_degradation(8, 0.7),
                    name="p2",
                ),
            ),
            name="w-degraded",
        ),
        Workload(
            phases=(
                base.replace(message_size=KiB(64), name="q0"),
                base.replace(message_size=MiB(8), name="q1"),
            ),
            name="w-clean",
        ),
    ]


def stripped(results):
    """Dict forms minus cache statistics (an observability sidecar that
    depends on what the shared cache already held, nested for sim
    results that embed plans)."""
    out = []
    for result in results:
        data = result.to_dict()
        data.pop("cache_stats", None)
        if isinstance(data.get("plan"), dict):
            data["plan"].pop("cache_stats", None)
        out.append(data)
    return out


class TestBatchEqualsScalarLoop:
    def test_plan_many_on_a_mixed_grid(self):
        scenarios = mixed_scenarios()
        batch = plan_many(scenarios, cache=ThroughputCache())
        loop = [plan(s, cache=ThroughputCache()) for s in scenarios]
        assert stripped(batch) == stripped(loop)

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_plan_many_counts_what_a_plan_loop_counts(self, grid):
        """On fresh caches of their own, ``plan_many`` and a loop of
        ``plan`` return equal results, ``cache_stats`` included, and
        leave equal cache statistics, cold and again warm."""
        scenarios = GRIDS[grid]()
        batch_cache, loop_cache = ThroughputCache(), ThroughputCache()
        for _ in ("cold", "warm"):
            batch = plan_many(scenarios, cache=batch_cache)
            loop = [plan(s, cache=loop_cache) for s in scenarios]
            assert [r.to_dict() for r in batch] == [r.to_dict() for r in loop]
            assert batch_cache.stats() == loop_cache.stats()

    def test_plan_many_prices_closed_forms_through_compute_theta(
        self, monkeypatch
    ):
        """On a fresh cache ``plan_many`` reaches the closed forms only
        through ``compute_theta``: one ``try_closed_form_theta`` call per
        distinct pattern, each a cache miss."""
        import repro.flows

        calls = []
        scalar = repro.flows.try_closed_form_theta

        def counting(topology, matching):
            calls.append(matching)
            return scalar(topology, matching)

        monkeypatch.setattr(repro.flows, "try_closed_form_theta", counting)
        cache = ThroughputCache()
        plan_many(alltoall_grid(), cache=cache)
        assert len(calls) == len(set(calls)) == cache.stats().misses == 15

    def test_sim_many_with_degraded_cells(self):
        scenarios = mixed_scenarios()[:5]
        batch = sim_many(scenarios, cache=ThroughputCache())
        # sim_many leaves utilization collection off by default.
        loop = [
            simulate_plan(s, cache=ThroughputCache(), collect_utilization=False)
            for s in scenarios
        ]
        assert stripped(batch) == stripped(loop)

    def test_workload_many_multi_phase_with_faults(self):
        workloads = mixed_workloads()
        batch = workload_many(workloads, cache=ThroughputCache())
        loop = [
            simulate_workload(w, cache=ThroughputCache()) for w in workloads
        ]
        assert stripped(batch) == stripped(loop)

    def test_plan_workload_many_with_per_item_policies(self):
        degraded, clean = mixed_workloads()
        jobs = [
            (degraded, "replan"),
            (clean, "hysteresis", {"threshold": 0.1}),
            (degraded, "oracle"),
        ]
        batch = plan_workload_many(jobs, cache=ThroughputCache())
        loop = [
            plan_workload(
                workload,
                policy=policy,
                cache=ThroughputCache(),
                **(rest[0] if rest else {}),
            )
            for workload, policy, *rest in jobs
        ]
        assert [p.policy for p in batch] == ["replan", "hysteresis", "oracle"]
        assert stripped(batch) == stripped(loop)
