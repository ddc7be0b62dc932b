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
from repro.flows import compute_theta
from repro.matching import Matching
from repro.topology import ring, torus
from repro.units import Gbps, MiB, ns, us

N = 64
B = Gbps(800)
TOPOLOGY = ring(N, B)
XOR_PATTERN = Matching.xor_exchange(N, 16)
SHIFT_PATTERN = Matching.shift(N, 16)


@pytest.mark.benchmark(group="theta")
def test_theta_exact_lp(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, XOR_PATTERN, method="lp", cache=None)
    )
    assert 0 < value <= 1


@pytest.mark.benchmark(group="theta")
def test_theta_exact_torus_4x4x4(benchmark):
    """A shift-1 step on a 4x4x4 torus: no closed form, 64 commodities
    on 384 links, many equal-length detours (the edge-flow LP took
    tens of seconds on it)."""
    fabric = torus((4, 4, 4), B)
    value = benchmark(
        lambda: compute_theta(
            fabric, Matching.shift(64, 1), B, method="lp", cache=None
        )
    )
    assert 0 < value <= 1


@pytest.mark.benchmark(group="theta")
def test_theta_closed_form(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, SHIFT_PATTERN, method="closed", cache=None)
    )
    lp = compute_theta(TOPOLOGY, SHIFT_PATTERN, method="lp", cache=None)
    assert value == pytest.approx(lp, rel=1e-6)


@pytest.mark.benchmark(group="theta")
def test_theta_shortest_path_proxy(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, XOR_PATTERN, method="sp", cache=None)
    )
    exact = compute_theta(TOPOLOGY, XOR_PATTERN, method="lp", cache=None)
    assert value <= exact * (1 + 1e-9)


@pytest.mark.benchmark(group="theta")
def test_theta_degree_proxy(benchmark):
    value = benchmark(
        lambda: compute_theta(TOPOLOGY, XOR_PATTERN, method="proxy", cache=None)
    )
    exact = compute_theta(TOPOLOGY, XOR_PATTERN, method="lp", cache=None)
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


# -- batch-first theta (vectorized kernels, warm-started LP) ----------------


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


@pytest.mark.benchmark(group="theta-batch")
def test_lp_warm_vs_cold(results_dir, bench_record):
    """Cold ``max_concurrent_flow`` vs the warm-started family solver on
    a degradation sweep: one fabric structure, many capacity states —
    the planner-under-churn workload the warm solver exists for.

    Both run the same column generation and return identical values;
    the warm solver re-solves each capacity state from the seed paths
    it cached on the first, so ``cold_vs_warm_speedup`` (cold time /
    warm time) measures what skipping the seed searches saves.
    """
    import time

    from repro.fabric.degradation import uniform_degradation
    from repro.flows import WarmStartLPSolver, commodities_from_matching
    from repro.flows.concurrent_flow import max_concurrent_flow

    n = 32
    pristine = ring(n, B)
    matching = Matching.shift(n, n // 2 - 1)
    states = [pristine] + [
        uniform_degradation(n, 1.0 - 0.02 * step).apply(pristine)
        for step in range(1, 13)
    ]
    commodities = commodities_from_matching(matching)

    solver = WarmStartLPSolver()
    cold_s = warm_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        cold = [
            max_concurrent_flow(state, commodities, B).theta for state in states
        ]
        cold_s = min(cold_s, time.perf_counter() - start)
        start = time.perf_counter()
        warm = [
            solver.solve_matching(state, matching, B) for state in states
        ]
        warm_s = min(warm_s, time.perf_counter() - start)
    assert cold == warm
    stats = solver.stats()
    ratio = cold_s / warm_s
    bench_record(
        degradation_states=len(states),
        cold_s=cold_s,
        warm_s=warm_s,
        cold_vs_warm_speedup=ratio,
        warm_solves=stats.warm_solves,
    )
    (results_dir / "theta_warm_lp.txt").write_text(
        f"n={n} ring, {len(states)} degradation states\n"
        f"cold LP: {cold_s * 1e3:.2f}ms\n"
        f"warm LP: {warm_s * 1e3:.2f}ms ({ratio:.2f}x)\n"
    )
    # The warm path must never be pathologically slower than cold.
    assert ratio > 0.4
    assert stats.warm_solves >= len(states) * 2 - 2
