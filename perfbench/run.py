"""The repository benchmark: three workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` reports per-layer spans and program
counters instead, with the tracing overhead and a coverage cross-check.
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import import_program, machine, median, self_peak_rss_mib, setup_times

WORKLOADS = ("paper-grid", "online-moe", "serve-pods")
SETUP_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "cold_ops_per_s": "1/s",
    "warm_ops_per_s": "1/s",
}

COUNTERS = {
    "flows.cache.hits": "count",
    "flows.cache.misses": "count",
    "flows.cache.hit_ratio": "ratio",
    "flows.block.pod_solves": "count",
    "flows.block.memo_hits": "count",
    "flows.block.pods_screened": "count",
    "flows.incremental.delta_solves": "count",
    "flows.incremental.full_solves": "count",
    "flows.incremental.reuse_ratio": "ratio",
    "sim.incidence_builds": "count",
}

SERVICE = {
    "service.dispatched": "count",
    "service.coalesced": "count",
    "service.batches": "count",
    "service.largest_batch": "count",
    "service.server_p50_ms": "ms",
    "service.wire_ms": "ms",
    "service.gen_lag_ms": "ms",
    "service.backlog_max": "count",
}

#: Spans that must record calls on each workload: the layers it is said
#: to exercise.  A zero there means a wrapper was bypassed.
EXPECTED = {
    "paper-grid": (
        "collectives.build",
        "planner.step_costs",
        "flows.theta",
        "flows.lp",
        "flows.highs",
        "core.dp",
        "engine.plan_many",
    ),
    "online-moe": (
        "collectives.build",
        "core.dp",
        "fabric.reconfig",
        "sim.run",
        "sim.rates",
        "topology.hop_distance",
        "control.observe",
        "control.decide",
    ),
    "serve-pods": (
        "flows.highs",
        "flows.block",
        "engine.plan_context",
        "engine.plan_many",
    ),
}


def workload_module(name: str):
    import grid
    import online
    import serve

    return {"paper-grid": grid, "online-moe": online, "serve-pods": serve}[name]


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(args) -> tuple[dict, dict]:
    module = workload_module(args.workload)
    result = module.measure(args.seed, args.seconds)
    if "setup_s" not in result:
        probe = [sys.executable, __file__, "--workload", args.workload]
        probe += ["--seed", str(args.seed), "--setup-probe"]
        result["setup_s"] = median(setup_times(probe, SETUP_PROBES))
        result["peak_rss_mib"] = self_peak_rss_mib()
    values = {**result["metrics"], "setup_s": result["setup_s"]}
    values["peak_rss_mib"] = result["peak_rss_mib"]
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, result


def per_layer(args) -> tuple[dict, dict]:
    from tracing import SPANS, Recorder, install

    module = workload_module(args.workload)
    result = module.trace(args.seed, Recorder(), install)
    layers = result["layers"]
    values = {}
    for span in SPANS:
        stats = layers.get(span, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{span}.calls"] = (stats["count"], "count")
        values[f"{span}.total_s"] = (stats["total_s"], "s")
        values[f"{span}.self_s"] = (stats["self_s"], "s")
    for name, unit in COUNTERS.items():
        values[name] = (result["counters"].get(name, 0), unit)
    service = result.get("service", {})
    for name, unit in SERVICE.items():
        values[name] = (service.get(name, 0), unit)
    overhead = result["traced_s"] - result["plain_s"]
    values["trace.overhead_s"] = (overhead, "s")
    values["trace.overhead_ratio"] = (overhead / result["plain_s"], "ratio")

    installed = result["installed"]
    problems = list(result["problems"])
    problems += [f"bypassed: {entry}" for entry in installed["bypassed"]]
    for span in EXPECTED[args.workload]:
        if span not in installed["absent_spans"] and layers[span]["count"] == 0:
            problems.append(f"{span} recorded no calls")
    result["problems"] = problems
    result["failed"] += len(problems)
    metrics = {name: metric(value, unit) for name, (value, unit) in values.items()}
    return metrics, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the program and build the inputs, then exit",
    )
    args = parser.parse_args()
    import_program()
    if args.setup_probe:
        workload_module(args.workload).build_inputs(args.seed)
        return 0
    metrics, result = (per_layer if args.trace else end_to_end)(args)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "details": result.get("details", {}),
    }
    if args.trace:
        report.update(
            layers=result["layers"],
            counters=result["counters"],
            service=result.get("service", {}),
            readings=result["readings"],
            installed=result["installed"],
            problems=result["problems"],
            overhead={
                "untraced_s": result["plain_s"],
                "traced_s": result["traced_s"],
                "basis": result.get("overhead_basis", "wall seconds of the unit"),
            },
        )
    print(json.dumps(report, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
