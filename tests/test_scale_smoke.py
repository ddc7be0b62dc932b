"""Paper-scale smoke: n=1024 pod fabrics price end-to-end in seconds.

The acceptance bar for the scale rewrite: a 16x64 pod fabric (n=1024)
must evaluate a full collective's theta battery in well under a minute
on one CPU.  The fast test keeps a cheaper n=256 variant in the tier-1
lane; the ``slow``-marked test runs the real n=1024 budget check in
CI's slow job (``-m slow``).
"""

from __future__ import annotations

import time

import pytest

from repro.flows import block_stats, compute_theta, pod_theta, reset_block_stats
from repro.matching import Matching
from repro.topology import PodFabric
from repro.units import Gbps

RATE = Gbps(800)


def test_n256_block_battery_is_subsecond():
    fabric = PodFabric(pod_sizes=(64,) * 4, bandwidth=RATE, uplinks_per_pod=4)
    topology = fabric.flat_topology()
    reset_block_stats()
    start = time.perf_counter()
    values = [
        compute_theta(topology, Matching.shift(256, k), RATE, cache=None)
        for k in (1, 64, 128)
    ]
    elapsed = time.perf_counter() - start
    assert all(v > 0 for v in values)
    assert elapsed < 10.0, f"n=256 battery took {elapsed:.1f}s"
    # Equal pods dedup: far fewer LPs than pods x patterns.
    stats = block_stats()
    assert stats.pod_solves < 4 * 3
    assert stats.memo_hits + stats.pods_screened > 0


@pytest.mark.slow
def test_n1024_theta_end_to_end_under_budget():
    n = 1024
    fabric = PodFabric(pod_sizes=(64,) * 16, bandwidth=RATE, uplinks_per_pod=4)
    topology = fabric.flat_topology()
    matchings = [Matching.shift(n, k) for k in (1, 3, 64, 512, 1023)]
    matchings += [Matching.xor_exchange(n, 1 << d) for d in range(0, 10, 3)]
    reset_block_stats()
    start = time.perf_counter()
    values = [compute_theta(topology, m, RATE, cache=None) for m in matchings]
    elapsed = time.perf_counter() - start
    assert all(v > 0 for v in values)
    # The acceptance criterion: the whole battery (9 patterns), not
    # just one theta, stays under the 60s budget on one CPU.
    assert elapsed < 60.0, f"n=1024 battery took {elapsed:.1f}s"
    stats = block_stats()
    # 16 equal pods x 9 patterns would be 144 pod LPs without the
    # dedup/screen machinery; require at least 4x avoidance.
    assert stats.pod_solves <= 36, stats
    assert stats.memo_hits + stats.pods_screened > 0


@pytest.mark.slow
def test_n1024_uneven_degraded_fabric_prices():
    sizes = (96,) * 4 + (64,) * 10
    fabric = PodFabric(
        pod_sizes=sizes,
        bandwidth=RATE,
        uplinks_per_pod=4,
        uplink_multipliers=(0.5,) + (1.0,) * (len(sizes) - 1),
    )
    topology = fabric.flat_topology()
    n = fabric.n
    start = time.perf_counter()
    value = pod_theta(topology, Matching.shift(n, n // 2), RATE)
    elapsed = time.perf_counter() - start
    assert value > 0
    assert elapsed < 60.0, f"uneven n={n} shift took {elapsed:.1f}s"
