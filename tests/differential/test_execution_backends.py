"""Serial vs thread vs process, over grids with degraded fabrics and
multi-phase workloads.

The execution backends must be pointwise interchangeable on the
scientific payload: same plans, same simulated times, same workload
phase results, whether the batch runs inline, on a thread pool, or
through the shared-memory process pool.  Scenario families here include
the cases the batch-first rewrite touches hardest — closed-form grids
(prewarmed), degraded fabrics (LP families), pod fabrics (the block
route) and bound-priced cells.
"""

from __future__ import annotations

import math

import pytest

from families import TOL
from repro.engine import plan_many, sim_many, workload_many
from repro.fabric.degradation import random_failures, uniform_degradation
from repro.flows import ThroughputCache
from repro.planner import Scenario
from repro.units import Gbps, KiB, MiB, ns, us
from repro.workload import Workload

WORKERS = 2

# Process pools and full grids: the heaviest tier of the differential
# harness.  ``-m "not slow"`` skips this module for the fast lane.
pytestmark = pytest.mark.slow


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
    """A batch mixing pristine closed-form cells, degraded LP cells,
    a pod-fabric cell and a bound-priced cell."""
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


def stripped(results):
    """Dict forms minus cache statistics (an interleaving-dependent
    observability sidecar, nested for sim results that embed plans)."""
    out = []
    for result in results:
        data = result.to_dict()
        data.pop("cache_stats", None)
        if isinstance(data.get("plan"), dict):
            data["plan"].pop("cache_stats", None)
        out.append(data)
    return out


def assert_thetas_close(reference, candidate):
    for ref, cand in zip(reference, candidate):
        ref_steps = ref.to_dict().get("step_costs", ())
        cand_steps = cand.to_dict().get("step_costs", ())
        for a, b in zip(ref_steps, cand_steps):
            ta, tb = a.get("theta"), b.get("theta")
            if ta is None or tb is None:
                continue
            if math.isinf(ta) or math.isinf(tb):
                assert ta == tb
            else:
                assert math.isclose(ta, tb, rel_tol=TOL, abs_tol=TOL)


class TestPlanManyBackendsAgree:
    def test_serial_thread_process_identical(self):
        scenarios = mixed_scenarios()
        serial = plan_many(scenarios, cache=ThroughputCache())
        thread = plan_many(
            scenarios,
            parallel_backend="thread",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        process = plan_many(
            scenarios,
            parallel_backend="process",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        assert stripped(serial) == stripped(thread) == stripped(process)
        assert_thetas_close(serial, process)


class TestSimAndWorkloadBackendsAgree:
    def test_sim_many_with_degraded_cells(self):
        scenarios = mixed_scenarios()[:5]
        serial = sim_many(scenarios, cache=ThroughputCache())
        process = sim_many(
            scenarios,
            parallel_backend="process",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        assert stripped(serial) == stripped(process)

    def test_workload_many_multi_phase_with_faults(self):
        base = base_scenario()
        workloads = [
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
        serial = workload_many(workloads, cache=ThroughputCache())
        thread = workload_many(
            workloads,
            parallel_backend="thread",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        process = workload_many(
            workloads,
            parallel_backend="process",
            parallel=WORKERS,
            cache=ThroughputCache(),
        )
        assert stripped(serial) == stripped(thread) == stripped(process)


class TestPrewarmContract:
    def test_prewarm_keeps_plan_results_and_misses_identical(self):
        scenarios = [
            base_scenario(),
            base_scenario().replace(message_size=MiB(16)),
        ]
        # The prewarmed run must report exactly the statistics a
        # non-prewarmed scalar run reports: the seeds take the misses
        # the step evaluations would have taken.
        import repro.engine.api as api

        cache_plain = ThroughputCache()
        original = api._prewarm_plan_batch
        api._prewarm_plan_batch = lambda requests, cache: 0
        try:
            plain = plan_many(scenarios, cache=cache_plain)
        finally:
            api._prewarm_plan_batch = original
        cache_warm = ThroughputCache()
        warmed = plan_many(scenarios, cache=cache_warm)
        assert stripped(plain) == stripped(warmed)
        assert cache_plain.stats().misses == cache_warm.stats().misses

    def test_prewarm_seeds_closed_forms(self):
        import repro.engine.api as api

        base = base_scenario()
        requests = [
            type("R", (), {"scenario": base})(),
            type("R", (), {"scenario": base.replace(message_size=MiB(2))})(),
        ]
        cache = ThroughputCache()
        seeded = api._prewarm_plan_batch(requests, cache)
        # Recursive doubling on a ring has exactly one shift-shaped
        # step (the XOR-n/2 exchange); the rest are LP rows the
        # prewarm must leave alone.
        assert seeded >= 1
        assert cache.stats().misses == seeded
