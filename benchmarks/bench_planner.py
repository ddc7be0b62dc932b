"""Benchmark the unified planner's batched entry point.

Plans the Figure-2 grid (n=64, 6x6 (alpha_r, message size) cells)
through ``plan_many`` on the ``shared_cache`` fixture.  The batch
runs in one serial loop; a grid uses more cores through separate
processes sharing one ``REPRO_CACHE_DIR`` store, which the CI
cache-roundtrip job exercises.
"""

from __future__ import annotations

import pytest

from repro.experiments import FIGURE2_PANEL, PAPER_CONFIG
from repro.experiments.figure1 import panel_scenario
from repro.engine import plan_many
from repro.planner import scenario_grid


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
