"""Experiment harness: config, panels, figures, CSV/CLI emission."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.experiments import (
    FIGURE1_PANELS,
    FIGURE2_PANEL,
    PAPER_CONFIG,
    PaperConfig,
    panel_by_id,
    panel_report,
    run_figure1,
    run_figure2,
    run_panel,
    small_config,
    write_panel_csv,
)
from repro.experiments.__main__ import main as cli_main
from repro.experiments.figure1 import panel_scenario
from repro.flows import ThroughputCache
from repro.units import Gbps, ns


class TestConfig:
    def test_paper_defaults(self):
        assert PAPER_CONFIG.n == 64
        assert PAPER_CONFIG.bandwidth == pytest.approx(Gbps(800))
        assert PAPER_CONFIG.delta == pytest.approx(ns(100))
        topology = panel_scenario(FIGURE1_PANELS[0]).build_topology()
        assert topology.n_ranks == 64
        assert topology.metadata["family"] == "ring"

    def test_eight_panels(self):
        assert len(FIGURE1_PANELS) == 8
        top_row = [p for p in FIGURE1_PANELS if p.comparator == "bvn"]
        bottom_row = [p for p in FIGURE1_PANELS if p.comparator == "static"]
        assert len(top_row) == len(bottom_row) == 4
        assert FIGURE2_PANEL.comparator == "best"

    def test_panel_lookup(self):
        assert panel_by_id("c").algorithm == "allreduce_swing"
        with pytest.raises(ConfigurationError):
            panel_by_id("z")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PaperConfig(n=1)
        with pytest.raises(ConfigurationError):
            PaperConfig(message_sizes=())
        for bandwidth in (0.0, float("inf"), float("nan")):
            with pytest.raises(ConfigurationError, match="finite number > 0"):
                PaperConfig(bandwidth=bandwidth)


@pytest.fixture(scope="module")
def small_results():
    """Panels a and e on a small domain (one shared theta cache)."""
    config = small_config(n=8)
    cache = ThroughputCache()
    return {
        spec.panel: run_panel(spec, config=config, cache=cache)
        for spec in (panel_by_id("a"), panel_by_id("e"), FIGURE2_PANEL)
    }


class TestPanels:
    def test_panel_a_shape(self, small_results):
        result = small_results["a"]
        speedups = result.speedups()
        # vs BvN: best corner is high alpha_r (last column), small message
        # (first row)
        assert speedups[0, -1] == speedups.max()
        assert speedups[0, -1] > 10

    def test_panel_e_shape(self, small_results):
        result = small_results["e"]
        speedups = result.speedups()
        # vs static: best corner is low alpha_r, large message
        assert speedups[-1, 0] == speedups.max()
        assert speedups[-1, 0] > 1.5

    def test_figure2_beats_best_somewhere(self, small_results):
        result = small_results["fig2"]
        assert result.census.max_speedup_vs_best > 1.0

    def test_all_speedups_at_least_one(self, small_results):
        for result in small_results.values():
            assert (result.speedups() >= 1.0 - 1e-12).all()


class TestFigureRunners:
    def test_run_figure1_subset(self):
        config = small_config(n=4)
        results = run_figure1(config, panels="ad")
        assert [r.spec.panel for r in results] == ["a", "d"]

    def test_run_figure2(self):
        config = small_config(n=4)
        result = run_figure2(config)
        assert result.spec.panel == "fig2"


class TestEmission:
    def test_report_renders(self, small_results):
        text = panel_report(small_results["a"])
        assert "Figure panel a" in text
        assert "shaded view" in text
        assert "max speedup" in text

    def test_csv_roundtrip(self, small_results, tmp_path):
        path = write_panel_csv(small_results["a"], tmp_path / "a.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        grid = small_results["a"].grid
        assert len(rows) == len(grid.message_sizes) * len(grid.alpha_rs)
        speedups = small_results["a"].speedups()
        first = rows[0]
        assert float(first["speedup"]) == pytest.approx(speedups[0, 0])
        assert first["algorithm"] == "allreduce_recursive_doubling"

    def test_cli_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "allreduce_swing" in out

    def test_cli_figure1_small(self, capsys, tmp_path):
        code = cli_main(
            ["figure1", "--panel", "a", "--n", "4", "--csv", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure panel a" in out
        assert (tmp_path / "figure_a.csv").exists()

    def test_cli_figure2_small(self, capsys):
        assert cli_main(["figure2", "--n", "4"]) == 0
        assert "fig2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command", ["figure1", "figure2", "workload", "degradation"]
    )
    def test_cli_rejects_worker_count_flags(self, command, capsys):
        # Batches run in one serial loop: a stale worker-count flag is
        # an argparse error, never a silently ignored option.
        for flag in (["--parallel", "2"], ["--parallel-backend", "process"]):
            with pytest.raises(SystemExit) as excinfo:
                cli_main([command, *flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["plan", "--n", "1"], "node count must be >= 2"),
            (
                ["serve", "--smoke", "5", "--batch-window", "inf"],
                "batch_window_s must be a finite number >= 0",
            ),
            (
                ["serve", "--smoke", "5", "--workers", "0"],
                "workers must be a whole number >= 1",
            ),
        ],
        ids=["plan-n-1", "serve-batch-window-inf", "serve-workers-0"],
    )
    def test_cli_reports_a_refused_input_in_one_line(self, argv, message, capsys):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
