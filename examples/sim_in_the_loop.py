#!/usr/bin/env python
"""Sim-in-the-loop planning: plan a collective, then *execute* the plan.

The planner predicts completion times from the closed-form alpha-beta
cost model; the flow-level simulator replays the planned schedule step
by step.  This example closes that loop three ways:

1. the correctness anchor — under idealized rates ("mcf") the measured
   total equals the analytic Eq. 7 objective to float precision;
2. the ablation — with max-min fair rates (a TCP-like transport) the
   measurement quantifies how optimistic the model is;
3. the sweep — a loop of ``simulate_plan`` executes a whole
   (message x alpha_r) grid through one shared theta cache.

Run:  python examples/sim_in_the_loop.py
"""

from repro import Gbps, MiB, Scenario, plan
from repro.planner import scenario_grid
from repro.sim import simulate_plan
from repro.units import KiB, format_time, ns, us


def main() -> None:
    scenario = Scenario.create(
        "allreduce_recursive_doubling",
        n=16,
        message_size=MiB(16),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(100),
    )

    # 1. Plan, then execute the plan on the flow-level simulator.
    planned = plan(scenario, solver="dp")
    result = simulate_plan(planned)
    print(f"schedule: {''.join('G' if d == 'base' else 'M' for d in result.decisions)}")
    print(f"analytic prediction: {format_time(result.analytic_time)}")
    print(f"simulated total:     {format_time(result.sim_time)} "
          f"(model error {result.model_error:.1e})")
    print(f"reconfigurations:    {result.n_reconfigurations} "
          f"({format_time(result.reconfiguration_time)})")

    # 2. Swap the idealized rates for max-min fairness on the static
    #    schedule (every step on the base ring): the gap is the model's
    #    optimism about the transport, measured — not assumed.
    static = plan(scenario, solver="static")
    ideal = simulate_plan(static)
    maxmin = simulate_plan(static, rate_method="maxmin", check_model=False)
    print(f"\nstatic ring, mcf:    {format_time(ideal.sim_time)}")
    print(f"static ring, maxmin: {format_time(maxmin.sim_time)} "
          f"({maxmin.sim_time / ideal.sim_time:.2f}x the mcf ideal)")
    busiest = max(maxmin.link_utilization, key=lambda item: item[1])
    (u, v), utilization = busiest
    print(f"busiest base link:   {u}->{v} at {utilization:.0%} utilization")

    # 3. Execute a whole sweep through one shared theta cache.
    grid = scenario_grid(scenario, [KiB(64), MiB(1), MiB(16)],
                         [us(1), us(100), us(10000)])
    results = [simulate_plan(cell, solver="dp") for cell in grid]
    print("\nsweep (rows: message size, cols: alpha_r, cell: simulated time)")
    for row in range(3):
        cells = results[row * 3:(row + 1) * 3]
        print("  " + "  ".join(f"{format_time(r.sim_time):>10}" for r in cells))


if __name__ == "__main__":
    main()
