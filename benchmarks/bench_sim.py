"""Simulator benches: model agreement, allocator cost, event throughput,
and a sim-in-the-loop sweep (a loop of ``simulate_plan``)."""

from __future__ import annotations

import pytest

from repro.collectives import make_collective
from repro.core import CostParameters, Schedule
from repro.matching import Matching
from repro.planner import Scenario, scenario_grid
from repro.sim import FlowLevelSimulator, allocate_rates, simulate, simulate_plan
from repro.topology import ring
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)
N = 64
PARAMS = CostParameters(
    alpha=ns(100), bandwidth=B, delta=ns(100), reconfiguration_delay=us(10)
)
RING = ring(N, B)


@pytest.mark.benchmark(group="sim")
def test_sim_mcf_matches_model(benchmark, shared_cache):
    collective = make_collective("allreduce_recursive_doubling", N, MiB(16))
    report = benchmark.pedantic(
        lambda: simulate(collective, RING, PARAMS, cache=shared_cache),
        rounds=1,
        iterations=1,
    )
    assert report.model_error < 1e-12


@pytest.mark.benchmark(group="sim")
def test_sim_maxmin_allocator(benchmark, shared_cache, results_dir):
    """Max-min fair rates vs the MCF ideal on the static ring."""
    collective = make_collective("allreduce_swing", N, MiB(16))
    schedule = Schedule.static(collective.num_steps)

    def run():
        mcf = FlowLevelSimulator(RING, PARAMS, rate_method="mcf", cache=shared_cache)
        maxmin = FlowLevelSimulator(
            RING, PARAMS, rate_method="maxmin", cache=shared_cache
        )
        return (
            mcf.run(collective, schedule).total_time,
            maxmin.run(collective, schedule).total_time,
        )

    t_mcf, t_maxmin = benchmark.pedantic(run, rounds=1, iterations=1)
    (results_dir / "sim_allocators.txt").write_text(
        f"mcf-optimal rates:  {t_mcf:.6e}s\n"
        f"max-min fair rates: {t_maxmin:.6e}s\n"
        f"model optimism:     {t_maxmin / t_mcf:.3f}x\n"
    )
    assert t_maxmin >= t_mcf - 1e-15


@pytest.mark.benchmark(group="sim")
def test_sim_event_throughput(benchmark, shared_cache):
    """126-step ring allreduce end to end (the longest paper workload)."""
    collective = make_collective("allreduce_ring", N, MiB(1))
    simulator = FlowLevelSimulator(RING, PARAMS, cache=shared_cache)
    schedule = Schedule.static(collective.num_steps)
    result = benchmark(lambda: simulator.run(collective, schedule))
    # one row per step, in order
    assert [row.index for row in result.steps] == list(
        range(collective.num_steps)
    )


@pytest.mark.benchmark(group="sim")
def test_simulate_plan_grid(benchmark, shared_cache, results_dir):
    """Plan + execute a 4x4 sweep, one ``simulate_plan`` per cell."""
    base = Scenario.create(
        "allreduce_swing",
        n=16,
        message_size=KiB(64),
        bandwidth=B,
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )
    grid = scenario_grid(
        base,
        [KiB(64), MiB(1), MiB(16), MiB(256)],
        [us(1), us(10), us(100), us(1000)],
    )
    results = benchmark.pedantic(
        lambda: [
            simulate_plan(cell, cache=shared_cache, collect_utilization=False)
            for cell in grid
        ],
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{r.scenario.collective.message_size:12.0f}b "
        f"alpha_r={r.scenario.cost.reconfiguration_delay:8.2e}s "
        f"sim={r.sim_time:.6e}s err={r.model_error:.2e}"
        for r in results
    ]
    (results_dir / "sim_grid.txt").write_text("\n".join(lines) + "\n")
    assert all(r.model_error < 1e-9 for r in results)


@pytest.mark.benchmark(group="sim")
def test_maxmin_allocator_n256(benchmark):
    """Vectorized progressive filling at n=256 (256 flows, 512 edges)."""
    topology = ring(256, B)
    matching = Matching.shift(256, 7)
    flows = benchmark(
        lambda: allocate_rates(topology, matching, B, method="maxmin")
    )
    assert len(flows) == 256
