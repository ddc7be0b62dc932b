"""Analysis layer: speedup grids, heatmaps, regimes, and the alpha_r
and delta sweeps planned through ``plan_many``."""

import numpy as np
import pytest

from repro.analysis import census, render_grid, render_shaded
from repro.engine import plan_many
from repro.exceptions import ConfigurationError
from repro.experiments import panel_by_id, run_panel, small_config
from repro.flows import ThroughputCache
from repro.planner import PlanRequest, Scenario, scenario_grid
from repro.units import Gbps, KiB, MiB, ns, us

B = Gbps(800)
SOLVERS = ("dp", "static", "bvn")


def scenario(algorithm, n, message_size):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=message_size,
        bandwidth=B,
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(1),
    )


def plan_cells(scenarios):
    """``{solver: PlanResult}`` per scenario, from one ``plan_many`` call."""
    results = plan_many(
        [PlanRequest(cell, solver) for cell in scenarios for solver in SOLVERS],
        cache=ThroughputCache(),
    )
    return [
        dict(zip(SOLVERS, results[i : i + len(SOLVERS)]))
        for i in range(0, len(results), len(SOLVERS))
    ]


@pytest.fixture(scope="module")
def grid():
    # panel a at n=8: recursive doubling, alpha = delta = 100 ns, rows
    # 4 KiB / 1 MiB / 64 MiB, columns alpha_r 100 ns / 10 us / 1 ms
    return run_panel(panel_by_id("a"), small_config(8), cache=ThroughputCache()).grid


class TestSpeedupGrid:
    def test_shape_and_labels(self, grid):
        assert grid.opt.shape == (3, 3)
        assert grid.algorithm == "allreduce_recursive_doubling"

    def test_opt_bounded_by_baselines(self, grid):
        assert (grid.opt <= grid.static + 1e-18).all()
        assert (grid.opt <= grid.bvn + 1e-18).all()

    def test_speedups_at_least_one(self, grid):
        for comparator in ("static", "bvn", "best"):
            assert (grid.speedup(comparator) >= 1.0 - 1e-12).all()

    def test_monotone_trends(self, grid):
        # vs BvN: speedup grows with alpha_r (per row)
        vs_bvn = grid.speedup("bvn")
        assert (np.diff(vs_bvn, axis=1) >= -1e-9).all()
        # vs static at the cheapest alpha_r: speedup grows with message size
        vs_static = grid.speedup("static")
        assert vs_static[2, 0] >= vs_static[0, 0] - 1e-9

    def test_unknown_comparator(self, grid):
        with pytest.raises(ConfigurationError):
            grid.speedup("magic")

    def test_regime_codes(self, grid):
        regimes = grid.regimes()
        assert set(np.unique(regimes)) <= {"static", "bvn", "mixed"}
        # corner checks: cheap reconfig + big message -> bvn;
        # dear reconfig + small message -> static
        assert regimes[2, 0] == "bvn"
        assert regimes[0, 2] == "static"


class TestCensus:
    def test_counts_sum(self, grid):
        report = census(grid)
        assert report.n_static + report.n_bvn + report.n_mixed == report.n_cells
        assert report.max_speedup_vs_best >= 1.0
        assert "cells" in report.summary()

    def test_mixed_cells_listed(self, grid):
        report = census(grid)
        assert len(report.mixed_cells) == report.n_mixed


class TestHeatmapRendering:
    def test_numeric_grid_contains_labels(self, grid):
        text = render_grid(
            grid.speedup("bvn"), grid.message_sizes, grid.alpha_rs, title="T"
        )
        assert "T" in text
        assert "4KiB" in text
        assert "64MiB" in text
        assert "10us" in text

    def test_rows_largest_message_first(self, grid):
        text = render_grid(grid.speedup("bvn"), grid.message_sizes, grid.alpha_rs)
        lines = text.splitlines()
        assert "64MiB" in lines[1]
        assert "4KiB" in lines[-1]

    def test_shaded_view_dimensions(self, grid):
        text = render_shaded(
            grid.speedup("static"), grid.message_sizes, grid.alpha_rs
        )
        body = [line for line in text.splitlines() if "|" in line]
        assert len(body) == 3
        assert all(line.count("|") == 2 for line in body)

    def test_shading_monotone(self):
        speedups = np.array([[1.0, 10.0, 1000.0]])
        text = render_shaded(speedups, (KiB(1),), (ns(100), us(1), us(10)))
        row = text.splitlines()[0]
        cells = row.split("|")[1]
        shades = " .:-=+*#%@"
        assert shades.index(cells[0]) < shades.index(cells[1]) < shades.index(cells[2])


class TestSweeps:
    def test_alpha_r_sweep_monotone_matched_steps(self):
        cells = plan_cells(
            scenario_grid(
                scenario("allreduce_recursive_doubling", 8, MiB(4)),
                (MiB(4),),
                (ns(100), us(1), us(10), us(100), us(1000)),
            )
        )
        matched = [cell["dp"].num_matched_steps for cell in cells]
        assert matched == sorted(matched, reverse=True)
        for cell in cells:
            assert cell["dp"].total_time <= cell["static"].total_time + 1e-18
            assert cell["dp"].total_time <= cell["bvn"].total_time + 1e-18


class TestPropagationStudy:
    """Static and optimized totals as the per-hop propagation delay
    ``delta`` grows (research agenda: "deeper understanding of the
    propagation delays")."""

    def test_static_delta_sensitivity_ordering(self):
        def growth(name):
            low, high = plan_cells(
                [
                    scenario(name, 16, MiB(1)).replace(delta=delta)
                    for delta in (ns(10), ns(1000))
                ]
            )
            return high["static"].total_time - low["static"].total_time

        # A neat identity: ring and halving/doubling both traverse
        # 2(n-1) total hops on a static ring (the XOR distances
        # telescope), so their delta sensitivity coincides...
        assert growth("allreduce_ring") == pytest.approx(
            growth("allreduce_recursive_doubling")
        )
        # ...while Swing's Jacobsthal distances sum to ~2n/3 steps less,
        # making it the least delta-sensitive of the three (its design
        # goal: short-cutting rings).
        assert growth("allreduce_swing") < growth("allreduce_recursive_doubling")

    def test_opt_bounded_by_static(self):
        (cell,) = plan_cells([scenario("allreduce_swing", 8, MiB(1))])
        assert cell["dp"].total_time <= cell["static"].total_time + 1e-18
