"""Ablation: the congestion-factor estimators (research agenda §4).

Compares the exact LP against the closed form and the two cheap proxies
on paper-scale patterns, both for *speed* (the benchmark timings) and
for *decision quality* (does the optimizer pick the same schedules when
driven by proxy thetas?).
"""

from __future__ import annotations

import pytest

from repro.collectives import make_collective
from repro.core import CostParameters, evaluate_step_costs, optimize_schedule
from repro.flows import (
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    try_closed_form_theta,
)
from repro.matching import Matching
from repro.topology import ring, torus
from repro.units import Gbps, MiB, ns, us

N = 64
B = Gbps(800)
TOPOLOGY = ring(N, B)
XOR_PATTERN = Matching.xor_exchange(N, 16)
SHIFT_PATTERN = Matching.shift(N, 16)


def exact_lp(topology, matching) -> float:
    """The certified LP, as ``compute_theta`` runs it when no closed
    form or pod layout applies."""
    return max_concurrent_flow(
        topology, commodities_from_matching(matching), B
    ).theta


@pytest.mark.benchmark(group="theta")
def test_theta_exact_lp(benchmark):
    value = benchmark(lambda: exact_lp(TOPOLOGY, XOR_PATTERN))
    assert 0 < value <= 1


@pytest.mark.benchmark(group="theta")
def test_theta_exact_torus_4x4x4(benchmark):
    """A shift-1 step on a 4x4x4 torus: no closed form, 64 commodities
    on 384 links, many equal-length detours (the edge-flow LP took
    tens of seconds on it)."""
    fabric = torus((4, 4, 4), B)
    value = benchmark(lambda: exact_lp(fabric, Matching.shift(64, 1)))
    assert 0 < value <= 1


@pytest.mark.benchmark(group="theta")
def test_theta_closed_form(benchmark):
    value = benchmark(lambda: try_closed_form_theta(TOPOLOGY, SHIFT_PATTERN))
    assert value == pytest.approx(exact_lp(TOPOLOGY, SHIFT_PATTERN), rel=1e-6)


@pytest.mark.benchmark(group="theta")
def test_theta_shortest_path_proxy(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, XOR_PATTERN, method="sp", cache=None)
    )
    exact = exact_lp(TOPOLOGY, XOR_PATTERN)
    assert value <= exact * (1 + 1e-9)


@pytest.mark.benchmark(group="theta")
def test_theta_degree_proxy(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, XOR_PATTERN, method="proxy", cache=None)
    )
    exact = exact_lp(TOPOLOGY, XOR_PATTERN)
    assert value >= exact * (1 - 1e-9)


@pytest.mark.benchmark(group="theta-decisions")
def test_proxy_driven_optimizer_gap(benchmark, results_dir):
    """End-to-end ablation: optimize with proxy thetas, evaluate against
    exact costs, record the optimality gap across alpha_r."""
    collective = make_collective("allreduce_recursive_doubling", N, MiB(16))
    base = CostParameters(
        alpha=ns(100), bandwidth=B, delta=ns(100), reconfiguration_delay=0
    )

    def run():
        from repro.core import evaluate_schedule

        exact_costs = evaluate_step_costs(collective, TOPOLOGY, base, cache=None)
        proxy_costs = evaluate_step_costs(
            collective, TOPOLOGY, base, theta_method="sp", cache=None
        )
        gaps = []
        for alpha_r in (ns(100), us(1), us(10), us(100), us(1000)):
            params = base.with_reconfiguration_delay(alpha_r)
            opt = optimize_schedule(exact_costs, params).cost.total
            proxy_schedule = optimize_schedule(proxy_costs, params).schedule
            proxy_value = evaluate_schedule(exact_costs, proxy_schedule, params).total
            gaps.append((alpha_r, proxy_value / opt))
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"alpha_r={a:.1e}s  proxy/opt={g:.4f}" for a, g in gaps]
    (results_dir / "theta_proxy_gap.txt").write_text("\n".join(lines) + "\n")
    assert all(g >= 1 - 1e-12 for _, g in gaps)
    assert max(g for _, g in gaps) < 1.5  # proxies stay within 50% here


# -- batch-first theta (vectorized kernels) ---------------------------------


def _figure1_grid_rows():
    """The closed-formable rows of an n=64 figure-style grid: every
    distinct shift pattern, re-priced across 36 (message, alpha_r)
    cells the way ``scenario_grid`` replays patterns per cell."""
    shifts = [Matching.shift(N, k) for k in range(1, N)]
    return shifts * 36


@pytest.mark.benchmark(group="theta-batch")
def test_theta_batch_vs_scalar_loop(results_dir, bench_record):
    """Vectorized ``theta_batch`` vs the scalar ``compute_theta`` loop
    on the closed-formable rows of the n=64 grid.

    Timed manually (best of three) so the comparison records its
    baseline under ``--benchmark-disable`` smoke mode too.  Both paths
    run uncached — the compute regime, where vectorization matters; a
    warm cache serves both identically.
    """
    import time

    from repro.flows import theta_batch

    rows = _figure1_grid_rows()
    scalar_s = batch_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        scalar = [compute_theta(TOPOLOGY, m, method="auto", cache=None) for m in rows]
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        batch = theta_batch(TOPOLOGY, rows, B, cache=None)
        batch_s = min(batch_s, time.perf_counter() - start)
    assert all(a == b for a, b in zip(scalar, batch))
    speedup = scalar_s / batch_s
    bench_record(
        grid_rows=len(rows),
        scalar_loop_s=scalar_s,
        theta_batch_s=batch_s,
        vectorized_speedup=speedup,
    )
    (results_dir / "theta_batch.txt").write_text(
        f"n={N} grid, {len(rows)} closed-form rows\n"
        f"scalar loop: {scalar_s * 1e3:.2f}ms\n"
        f"theta_batch: {batch_s * 1e3:.2f}ms ({speedup:.1f}x)\n"
    )
    assert speedup >= 3.0
