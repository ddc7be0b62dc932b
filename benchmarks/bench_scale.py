"""The scaling curve: sparse kernels + block solving vs the flat paths.

Records the n in {64, 256, 512, 1024} story behind the scale rewrite:

* **block vs flat theta** — the blockwise pod decomposition against the
  flat concurrent flow (path column generation) on a cross-pod shift,
  priced up to n=512; at n=1024 only the block value is recorded;
* **sparse rate kernel** — the progressive-filling max-min allocator
  from a cold incidence memo;
* **peak RSS** — the high-water resident set after each stage, so a
  memory blow-up in either path shows in the trajectory.

Everything lands in ``BENCH_scale.json`` (via ``--bench-json``) and is
gated by ``check_regression.py`` against the checked-in, CPU-tagged
baseline.  Block and flat theta must agree at 1e-9; the block-vs-flat
ratio is recorded, not asserted, since it sits near the 5x the flat
path is meant to stay within at n=512.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro.flows import (
    commodities_from_matching,
    max_concurrent_flow,
    pod_theta,
    reset_block_stats,
)
from repro.matching import Matching
from repro.sim.rates import allocate_rates, clear_incidence_cache
from repro.topology import PodFabric
from repro.units import Gbps

RATE = Gbps(800)

#: Flat ceiling: the flat theta is priced once per n up to here.
FLAT_MAX_N = 512

SIZES = (64, 256, 512, 1024)


def _fabric(n: int) -> PodFabric:
    pods = max(1, n // 64)
    return PodFabric(
        pod_sizes=(n // pods,) * pods, bandwidth=RATE, uplinks_per_pod=4
    )


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.benchmark(group="scale")
def test_scaling_curve(results_dir, bench_record):
    """One pass over the size ladder, timed manually so the full curve
    (including the flat references) records under smoke mode too."""
    curve: dict[str, dict[str, float]] = {}
    reset_block_stats()
    for n in SIZES:
        fabric = _fabric(n)
        topology = fabric.flat_topology()
        matching = Matching.shift(n, n // 2 - 1)

        start = time.perf_counter()
        block = pod_theta(topology, matching, RATE)
        block_s = time.perf_counter() - start
        entry = {"block_theta_s": block_s, "peak_rss_mib": _peak_rss_mib()}

        if n <= FLAT_MAX_N:
            start = time.perf_counter()
            flat = max_concurrent_flow(
                topology, commodities_from_matching(matching), RATE
            ).theta
            entry["flat_lp_s"] = time.perf_counter() - start
            entry["block_vs_flat_speedup"] = entry["flat_lp_s"] / block_s
            assert block == pytest.approx(flat, rel=1e-9)

        # Max-min rates on the same fabric/pattern, incidence built cold.
        clear_incidence_cache()
        start = time.perf_counter()
        rates = allocate_rates(topology, matching, RATE, method="maxmin", cache=None)
        entry["maxmin_sparse_s"] = time.perf_counter() - start
        assert len(rates) == len(matching)
        clear_incidence_cache()

        entry["peak_rss_mib"] = _peak_rss_mib()
        curve[str(n)] = entry

    bench_record(
        **{
            f"n{n}_{key}": value
            for n, entry in curve.items()
            for key, value in entry.items()
        }
    )
    lines = [
        f"n={n}: " + "  ".join(f"{k}={v:.3f}" for k, v in entry.items())
        for n, entry in curve.items()
    ]
    (results_dir / "scale_curve.txt").write_text("\n".join(lines) + "\n")


@pytest.mark.benchmark(group="scale")
def test_n1024_collective_battery(benchmark, bench_record):
    """The n=1024 end-to-end budget as a repeatable benchmark case: a
    mixed shift/XOR battery on the 16x64 fabric."""
    n = 1024
    topology = _fabric(n).flat_topology()
    matchings = [Matching.shift(n, k) for k in (1, 64, 512)]
    matchings += [Matching.xor_exchange(n, 1 << d) for d in (0, 5, 9)]

    def battery():
        from repro.flows.block import _clear_block_memos

        _clear_block_memos()  # time the compute regime, not the memo
        return [pod_theta(topology, m, RATE) for m in matchings]

    values = benchmark.pedantic(battery, rounds=1, iterations=1)
    assert all(v > 0 for v in values)
    bench_record(n1024_battery_patterns=len(matchings))
