#!/usr/bin/env python
"""Mixture-of-Experts dispatch: All-to-All after an AllReduce.

MoE training alternates expert dispatch (All-to-All) with gradient
synchronization (AllReduce).  The paper notes (§3.3) that the
optimization framework applies unchanged to *sequences* of collectives;
this script composes the two, runs the flow-level simulator on the
optimized schedule, and prints the simulator's first step rows.

It also demonstrates the base-topology-pool extension: adding a second
co-prime ring to the pool shortens All-to-All's long shifts.

Run:  python examples/moe_alltoall.py
"""

from repro import (
    CostParameters,
    Gbps,
    MiB,
    evaluate_step_costs,
    make_collective,
    ns,
    optimize_pool_schedule,
    optimize_schedule,
    ring,
    us,
)
from repro.collectives import compose_sequence
from repro.sim import simulate
from repro.topology import coprime_rings
from repro.units import format_time


def main() -> None:
    n = 32
    bandwidth = Gbps(800)
    topology = ring(n, bandwidth)
    params = CostParameters(
        alpha=ns(100),
        bandwidth=bandwidth,
        delta=ns(100),
        reconfiguration_delay=us(5),
    )

    # one MoE iteration: dispatch tokens, then sync expert gradients
    dispatch = make_collective("alltoall", n, MiB(8))
    gradient_sync = make_collective("allreduce_swing", n, MiB(32))
    iteration = compose_sequence([dispatch, gradient_sync], name="moe_iteration")
    print(
        f"workload: {iteration.name} = {dispatch.num_steps} all-to-all steps "
        f"+ {gradient_sync.num_steps} allreduce steps"
    )

    # optimize the whole sequence end to end
    costs = evaluate_step_costs(iteration, topology, params)
    result = optimize_schedule(costs, params)
    print(f"\noptimized schedule: {result.schedule}")
    print(
        f"completion {format_time(result.cost.total)} with "
        f"{result.cost.n_reconfigurations} reconfigurations"
    )

    # run it through the flow-level simulator and show the first steps
    report = simulate(iteration, topology, params, schedule=result.schedule)
    print(f"simulated total: {format_time(report.simulation.total_time)} "
          f"(model error {report.model_error:.1e})")
    print("\nfirst simulated steps:")
    for row in report.simulation.steps[:5]:
        print(
            f"  step {row.index:>2} {row.decision:<7} {row.label:<28} "
            f"reconfig {format_time(row.reconfiguration):>8}  "
            f"{format_time(row.start):>9} -> {format_time(row.end):>9}"
        )

    # extension: a pool of two co-prime rings as standing topologies
    pool = [topology, coprime_rings(n, (7,), bandwidth, bidirectional=True)]
    pooled = optimize_pool_schedule(iteration, pool, params)
    print(
        f"\nwith a {{shift-1, shift-7}} base-topology pool: "
        f"{format_time(pooled.total)} "
        f"({result.cost.total / pooled.total:.2f}x vs single base)"
    )


if __name__ == "__main__":
    main()
