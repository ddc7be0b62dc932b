"""Delta-aware incremental replanning vs cold block pricing at n=1024.

The adaptivity story's headline number: when a single pod degrades on
the 16x64 fabric, re-pricing through a primed :class:`PlanContext`
must touch only the dirty pod (plus the coarse envelope) and leave the
other fifteen pods to cached reuse and certified-bound screening.
Both sides are timed with the process-wide block memos cleared, so the
delta path's advantage comes from the carried :class:`ThetaParts`, not
from incidental memoization — and both sides must agree at 1e-9, the
same exactness bar the differential suite pins.

Lands in ``BENCH_incremental.json`` (via ``--bench-json``) and is
gated by ``check_regression.py`` against the CPU-tagged baseline.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.fabric.degradation import FabricHealth
from repro.flows import (
    DeltaIndex,
    incremental_stats,
    pod_structure,
    pod_theta_parts,
    reset_incremental_stats,
)
from repro.flows.block import _clear_block_memos
from repro.matching import Matching
from repro.topology import PodFabric
from repro.units import Gbps

RATE = Gbps(800)
N = 1024
PODS = 16

#: Acceptance floor: delta repricing after a single-pod fault must be
#: at least this much faster than pricing the faulted fabric cold.
MIN_SPEEDUP = 5.0
#: Both sides are timed this many times, interleaved, and compared by
#: their medians: a delta re-price takes ~20 ms, too short for one
#: timing to hold a floor.
REPEATS = 5


@pytest.mark.benchmark(group="incremental")
def test_single_pod_fault_delta_vs_cold(results_dir, bench_record):
    fabric = PodFabric(
        pod_sizes=(N // PODS,) * PODS, bandwidth=RATE, uplinks_per_pod=4
    )
    base = fabric.flat_topology()
    matching = Matching.shift(N, N // 2 - 1)
    structure = pod_structure(base)

    # Prime: price the pristine fabric once; these parts are what a
    # resident PlanContext would carry between workload phases.
    _clear_block_memos()
    start = time.perf_counter()
    prev = pod_theta_parts(base, matching, RATE)
    prime_s = time.perf_counter() - start

    # The fault: one rank in pod 3 dims to half rate — one dirty pod,
    # coarse dirty (its uplinks scale too), fifteen clean pods.
    health = FabricHealth(port_multipliers={3 * (N // PODS) + 1: 0.5})
    faulted = health.apply(base)
    delta = DeltaIndex(structure).diff_health(None, health)
    assert delta.dirty_pods == frozenset({3}) and not delta.full

    cold_times, delta_times = [], []
    for _ in range(REPEATS):
        _clear_block_memos()
        start = time.perf_counter()
        cold_parts = pod_theta_parts(faulted, matching, RATE)
        cold_times.append(time.perf_counter() - start)

        reset_incremental_stats()
        _clear_block_memos()
        start = time.perf_counter()
        delta_parts = pod_theta_parts(
            faulted, matching, RATE, prev=prev, delta=delta
        )
        delta_times.append(time.perf_counter() - start)
    cold_s = statistics.median(cold_times)
    delta_s = statistics.median(delta_times)

    assert delta_parts.theta == pytest.approx(cold_parts.theta, rel=1e-9)
    stats = incremental_stats()
    # The dirty pod is either re-solved or screened out by its fresh
    # bound (on a cross-pod shift the coarse envelope binds, so even
    # the dirty pod can screen); every clean pod must be avoided.
    assert stats.dirty_pods_solved <= 1
    assert stats.clean_pods_reused + stats.pods_screened >= PODS - 1

    speedup = cold_s / delta_s
    bench_record(
        n=N,
        pods=PODS,
        prime_s=prime_s,
        cold_s=cold_s,
        delta_s=delta_s,
        delta_speedup=speedup,
        clean_pods_reused=stats.clean_pods_reused,
        pods_screened=stats.pods_screened,
        dirty_pods_solved=stats.dirty_pods_solved,
        reuse_ratio=stats.reuse_ratio,
    )
    (results_dir / "incremental_fault.txt").write_text(
        f"n={N} pods={PODS} prime={prime_s:.3f}s cold={cold_s:.3f}s "
        f"delta={delta_s:.3f}s speedup={speedup:.1f}x "
        f"reuse_ratio={stats.reuse_ratio:.0%}\n"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"delta repricing only {speedup:.1f}x over cold "
        f"(cold={cold_s:.3f}s delta={delta_s:.3f}s)"
    )
