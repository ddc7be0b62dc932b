"""Benchmark the unified planner's batched entry point.

Plans the Figure-2 grid (n=64, 6x6 (alpha_r, message size) cells)
through ``plan_many`` serially and with four worker threads, asserting
that parallel planning is bit-identical to serial planning and that the
shared thread-safe theta cache absorbs the cross-cell redundancy.
Writes a summary to ``benchmarks/results/planner.txt``.

The execution-backend benchmark plans the full n=64 Figure 1 grid
(8 panels x 36 cells x 3 solvers = 864 plans) through the thread and
process backends and records the speedup in
``benchmarks/results/BENCH_planner.json`` (via ``--bench-json``).  The
thread backend is GIL-bound on the pure-python schedule DP; the process
backend runs it in parallel but pays worker start-up, which on two
CPUs roughly cancels the gain now that the grid's exact thetas are
cheap (``cpu_count`` is recorded alongside the timings, and the
recorded speedup documents the trade honestly).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.engine import DiskStore
from repro.experiments import FIGURE2_PANEL, PAPER_CONFIG
from repro.experiments.config import FIGURE1_PANELS
from repro.experiments.figure1 import _PANEL_SOLVERS, panel_scenario
from repro.flows import ThroughputCache
from repro.engine import plan_many
from repro.planner import PlanRequest, scenario_grid


def _grid():
    return scenario_grid(
        panel_scenario(FIGURE2_PANEL, PAPER_CONFIG),
        PAPER_CONFIG.message_sizes,
        PAPER_CONFIG.alpha_rs,
    )


@pytest.mark.benchmark(group="planner")
def test_plan_many_serial(benchmark, shared_cache):
    grid = _grid()
    results = benchmark.pedantic(
        lambda: plan_many(grid, solver="dp", cache=shared_cache),
        rounds=1,
        iterations=1,
    )
    assert len(results) == len(grid)
    assert all(r.solver == "dp" for r in results)


@pytest.mark.benchmark(group="planner")
def test_plan_many_parallel_matches_serial(benchmark, results_dir):
    grid = _grid()
    serial_cache = ThroughputCache()
    serial = plan_many(grid, solver="dp", cache=serial_cache)

    parallel_cache = ThroughputCache()
    parallel = benchmark.pedantic(
        lambda: plan_many(grid, solver="dp", parallel=4, cache=parallel_cache),
        rounds=1,
        iterations=1,
    )

    assert [r.total_time for r in parallel] == [r.total_time for r in serial]
    assert [r.schedule for r in parallel] == [r.schedule for r in serial]
    stats = parallel_cache.stats()
    assert stats.hit_rate > 0
    (results_dir / "planner.txt").write_text(
        f"grid cells: {len(grid)}\n"
        f"shared cache: {stats.size} entries, "
        f"{stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.1%} hit rate)\n"
    )


def _figure1_requests():
    """The full n=64 Figure 1 workload: every panel, cell, and solver."""
    return [
        PlanRequest(scenario=cell, solver=solver)
        for spec in FIGURE1_PANELS
        for cell in scenario_grid(
            panel_scenario(spec, PAPER_CONFIG),
            PAPER_CONFIG.message_sizes,
            PAPER_CONFIG.alpha_rs,
        )
        for solver in _PANEL_SOLVERS
    ]


def _strip_stats(result):
    data = result.to_dict()
    data.pop("cache_stats", None)
    return data


@pytest.mark.benchmark(group="planner")
def test_plan_many_process_vs_thread(results_dir, bench_record, tmp_path):
    """Thread vs process execution backend on the n=64 Figure 1 grid.

    Timed manually (not through the ``benchmark`` fixture) so the
    comparison also runs — and records its baseline — under
    ``--benchmark-disable`` smoke mode.  Both backends start from cold
    caches; the process workers share a fresh on-disk store under
    ``tmp_path``, so cross-worker theta reuse is part of what is
    measured.
    """
    requests = _figure1_requests()
    cpu_count = os.cpu_count() or 1
    workers = max(2, min(4, cpu_count))

    start = time.perf_counter()
    thread_results = plan_many(
        requests,
        parallel=workers,
        parallel_backend="thread",
        cache=ThroughputCache(),
    )
    thread_s = time.perf_counter() - start

    start = time.perf_counter()
    process_results = plan_many(
        requests,
        parallel=workers,
        parallel_backend="process",
        cache=ThroughputCache(store=DiskStore(tmp_path / "theta")),
    )
    process_s = time.perf_counter() - start

    assert [_strip_stats(r) for r in process_results] == [
        _strip_stats(r) for r in thread_results
    ]
    speedup = thread_s / process_s
    bench_record(
        figure1_grid_plans=len(requests),
        workers=workers,
        cpu_count=cpu_count,
        thread_s=thread_s,
        process_s=process_s,
        process_speedup_vs_thread=speedup,
    )
    (results_dir / "planner_backends.txt").write_text(
        f"figure1 n=64 grid: {len(requests)} plans, {workers} workers "
        f"({cpu_count} cores)\n"
        f"thread:  {thread_s:.3f}s\n"
        f"process: {process_s:.3f}s ({speedup:.2f}x vs thread)\n"
    )
    # The headline number lives in BENCH_planner.json; the assertion is
    # only a generous floor against pathological regressions (e.g. the
    # affinity scheduler re-solving every theta in every worker), not a
    # wall-clock race that can flake CI on a noisy shared runner.  With
    # exact thetas this cheap, worker start-up sets the ratio: on a
    # 2-CPU box it read 0.38-1.1 with column generation (1.06-2.0 with
    # the edge-flow LP), so the floor sits at half the lowest reading.
    assert speedup > 0.2
