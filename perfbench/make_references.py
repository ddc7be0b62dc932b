"""Regenerate the stored output references from the current program.

    python3 perfbench/make_references.py

Only for a deliberate change of the program's answers: the benchmark
checks every run against these files at 1e-9.
"""

from __future__ import annotations

import json

from common import REFERENCES, import_program


def main() -> None:
    import_program()
    from repro.analysis import measure_regret
    from repro.experiments.figure1 import run_figure1
    from repro.flows import ThroughputCache
    from repro.workload import drifting_moe_trace

    import grid
    import online

    REFERENCES.mkdir(exist_ok=True)
    totals = grid.totals(run_figure1(cache=ThroughputCache()))
    with open(REFERENCES / "paper_grid_totals.json", "w") as fh:
        json.dump(totals, fh, indent=0, sort_keys=True)

    base = online.base_scenario()
    efficiency = {}
    for trace_seed in online.POOL:
        workload = drifting_moe_trace(base, layers=online.LAYERS, seed=trace_seed)
        report = measure_regret(workload, policy="online-ewma", cache=ThroughputCache())
        efficiency[str(trace_seed)] = report.efficiency
    with open(REFERENCES / "online_efficiency.json", "w") as fh:
        json.dump(efficiency, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    main()
