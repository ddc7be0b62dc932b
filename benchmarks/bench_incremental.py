"""A single-pod fault at n=1024, re-priced on primed pod memos.

The adaptivity record: when one pod degrades on the 16x64 fabric,
:func:`repro.flows.pod_theta` keys each pod subproblem by its content,
so the fifteen untouched pods are served from the memos or from
screening and the re-price runs at most the coarse LP and the faulted
pod's LP.  The memos are primed with the pristine fabric; the re-price
is timed next to the same price on cleared memos, and the two must
agree bit for bit.

The record is the exact work counts, not a speedup floor: equal pods
share one bounds computation, so the cleared-memo price is itself only
a few times slower than the re-price.

Lands in ``BENCH_incremental.json`` (via ``--bench-json``) and is
gated by ``check_regression.py`` against the CPU-tagged baseline.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.fabric.degradation import FabricHealth
from repro.flows import block_stats, pod_theta, reset_block_stats
from repro.flows.block import _clear_block_memos, changed_pods
from repro.matching import Matching
from repro.topology import PodFabric
from repro.units import Gbps

RATE = Gbps(800)
N = 1024
PODS = 16

#: Both prices are timed this many times, interleaved, and compared by
#: their medians: a re-price takes ~20 ms, too short for one timing.
REPEATS = 5


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.mark.benchmark(group="incremental")
def test_single_pod_fault_reprice(results_dir, bench_record):
    fabric = PodFabric(
        pod_sizes=(N // PODS,) * PODS, bandwidth=RATE, uplinks_per_pod=4
    )
    base = fabric.flat_topology()
    matching = Matching.shift(N, N // 2 - 1)
    # The fault: a gateway rank of pod 3 dims to half rate, so pod 3's
    # subproblem and the coarse star change and fifteen pods do not.
    faulted = FabricHealth(port_multipliers={3 * (N // PODS) + 1: 0.5}).apply(base)
    assert changed_pods(base, faulted) == (3,)

    prime_times, cleared_times, reprice_times = [], [], []
    for _ in range(REPEATS):
        _clear_block_memos()
        cleared, seconds = _timed(lambda: pod_theta(faulted, matching, RATE))
        cleared_times.append(seconds)

        _clear_block_memos()
        _, seconds = _timed(lambda: pod_theta(base, matching, RATE))
        prime_times.append(seconds)
        reset_block_stats()
        reprice, seconds = _timed(lambda: pod_theta(faulted, matching, RATE))
        reprice_times.append(seconds)
        stats = block_stats()

        assert reprice == cleared
        # At most the coarse LP and one pod LP; the other fifteen pods
        # come from the memo or are screened.
        assert stats.coarse_solves == 1 and stats.pod_solves <= 2, stats
        assert stats.memo_hits + stats.pods_screened >= PODS - 1, stats

    prime_s = statistics.median(prime_times)
    cleared_s = statistics.median(cleared_times)
    reprice_s = statistics.median(reprice_times)
    bench_record(
        n=N,
        pods=PODS,
        prime_s=prime_s,
        cleared_s=cleared_s,
        reprice_s=reprice_s,
        pod_solves=stats.pod_solves,
        memo_hits=stats.memo_hits,
        pods_screened=stats.pods_screened,
    )
    (results_dir / "incremental_fault.txt").write_text(
        f"n={N} pods={PODS} prime={prime_s:.3f}s cleared={cleared_s:.3f}s "
        f"reprice={reprice_s:.3f}s pod_solves={stats.pod_solves} "
        f"memo_hits={stats.memo_hits} screened={stats.pods_screened}\n"
    )
