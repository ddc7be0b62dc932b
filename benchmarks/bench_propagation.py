"""Ablation: propagation-delay sensitivity (research agenda §4).

Reproduces the paper's remark that high per-hop propagation keeps the
ring algorithm attractive on static rings, while reconfigurable fabrics
favour few-step algorithms.  Records static vs optimized totals for the
three AllReduce families across three decades of delta.
"""

from __future__ import annotations

import pytest

from repro.engine import plan_many
from repro.planner import PlanRequest, Scenario
from repro.units import Gbps, MiB, ns, us

B = Gbps(800)
N = 64
BASE = Scenario.create(
    "allreduce_ring",
    n=N,
    message_size=MiB(1),
    bandwidth=B,
    alpha=ns(100),
    delta=ns(100),
    reconfiguration_delay=us(10),
)
ALGORITHMS = ("allreduce_ring", "allreduce_recursive_doubling", "allreduce_swing")
DELTAS = (ns(10), ns(100), us(1), us(10))
CELLS = [(algorithm, delta) for algorithm in ALGORITHMS for delta in DELTAS]


@pytest.mark.benchmark(group="propagation")
def test_propagation_delay_sweep(benchmark, shared_cache, results_dir):
    requests = [
        PlanRequest(BASE.replace(algorithm=algorithm, delta=delta), solver)
        for algorithm, delta in CELLS
        for solver in ("static", "dp")
    ]
    results = benchmark.pedantic(
        lambda: plan_many(requests, cache=shared_cache),
        rounds=1,
        iterations=1,
    )
    static = {cell: r.total_time for cell, r in zip(CELLS, results[0::2])}
    opt = dict(zip(CELLS, results[1::2]))
    lines = [
        f"{algorithm:>30} delta={delta:.0e}s "
        f"static={static[algorithm, delta]:.4e}s "
        f"opt={opt[algorithm, delta].total_time:.4e}s "
        f"matched={opt[algorithm, delta].num_matched_steps}"
        for algorithm, delta in CELLS
    ]
    (results_dir / "propagation_study.txt").write_text("\n".join(lines) + "\n")

    def growth(algorithm):
        return static[algorithm, DELTAS[-1]] - static[algorithm, DELTAS[0]]

    # Swing is the least delta-sensitive statically (shortest total path)
    assert growth("allreduce_swing") < growth("allreduce_recursive_doubling")
    # optimized schedules never lose to static
    assert all(opt[cell].total_time <= static[cell] + 1e-15 for cell in CELLS)
