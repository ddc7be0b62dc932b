"""Shared benchmark fixtures.

Figure benches run the full paper-scale harness (n=64) once via
``benchmark.pedantic(rounds=1)`` and write their rendered heatmaps to
``benchmarks/results/`` so the artifacts of a benchmark run are
inspectable afterwards.

Machine-readable baselines: passing ``--bench-json`` additionally
writes one ``benchmarks/results/BENCH_<name>.json`` per bench module
(``bench_planner.py`` -> ``BENCH_planner.json``) with the mean/median
wall time of every case, plus any extra metrics a bench recorded
through the ``bench_record`` fixture (e.g. the scale benchmark's
block-vs-flat curve).  CI uploads these as artifacts on every
run, so the repo accumulates a perf trajectory.  The flag composes
with ``--benchmark-disable``: wall times then cover one untimed pass
per case, which is exactly the smoke-mode baseline CI records.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
from pathlib import Path

import pytest

from repro.flows import ThroughputCache

RESULTS_DIR = Path(__file__).parent / "results"

#: Per-module case durations: {module stem: {case id: [seconds, ...]}}.
_DURATIONS: dict[str, dict[str, list[float]]] = {}
#: Per-module extra metrics recorded via the ``bench_record`` fixture.
_EXTRA: dict[str, dict[str, object]] = {}


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store_true",
        default=False,
        help="write machine-readable benchmarks/results/BENCH_<name>.json "
        "baselines (mean/median wall time per case)",
    )


def pytest_runtest_logreport(report):
    if report.when != "call" or not report.passed:
        return
    module = Path(report.nodeid.split("::", 1)[0]).stem
    if not module.startswith("bench_"):
        return
    case = report.nodeid.split("::", 1)[1]
    _DURATIONS.setdefault(module, {}).setdefault(case, []).append(
        float(report.duration)
    )


def pytest_sessionfinish(session, exitstatus):
    if not session.config.getoption("bench_json"):
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    for module in sorted(set(_DURATIONS) | set(_EXTRA)):
        name = module[len("bench_"):]
        cases = {
            case: {
                "mean_s": statistics.fmean(values),
                "median_s": statistics.median(values),
                "rounds": len(values),
            }
            for case, values in sorted(_DURATIONS.get(module, {}).items())
        }
        data: dict[str, object] = {
            "benchmark": name,
            # Machine tag: check_regression.py matches CPU-tagged
            # baselines (BENCH_<name>.cpu<K>.json) against this.
            "machine": {"cpu_count": os.cpu_count() or 1},
            "cases": cases,
        }
        extra = _EXTRA.get(module)
        if extra:
            data["extra"] = extra
        path = RESULTS_DIR / f"BENCH_{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n")


@pytest.fixture(autouse=True)
def _collected_heap():
    """Start every case from a collected heap, so a case's wall time
    never includes a full collection of garbage earlier cases left."""
    gc.collect()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def shared_cache() -> ThroughputCache:
    """One theta cache for the whole benchmark session: patterns repeat
    across panels, so later benches measure the amortized regime."""
    return ThroughputCache()


@pytest.fixture
def bench_record(request):
    """Record extra metrics into this module's ``BENCH_<name>.json``.

    Usage: ``bench_record(n1024_battery_patterns=9)``.  Values
    land under the file's ``extra`` key (only when ``--bench-json`` is
    active at session end).
    """
    module = Path(str(request.fspath)).stem

    def record(**metrics) -> None:
        _EXTRA.setdefault(module, {}).update(metrics)

    return record
