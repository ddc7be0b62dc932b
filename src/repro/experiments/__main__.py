"""Command-line entry point: ``python -m repro.experiments ...``.

Subcommands:

* ``figure1 [--panel a..h] [--n N] [--csv DIR]`` — Figure 1.
* ``figure2 [--n N] [--csv DIR]``  — Figure 2.
* ``plan [...]``      — plan one scenario through the unified planner.
* ``simulate [...]``  — plan a scenario, then *execute* the plan on the
  flow-level simulator and report measured vs analytic time.
* ``workload [...]``  — expand a synthetic traffic trace into a
  multi-phase workload, plan it with an online policy (or compare all
  policies), execute it on the flow simulator, and report per-phase and
  end-to-end times; ``--grid`` runs the full traces x policies grid.
* ``degradation [...]`` — the fabric-condition grid: plan and simulate
  one collective under pristine/failed/dimmed/hotspot/lost-wavelength
  fabrics with the ``dp`` and fault-avoiding ``avoid`` solvers, and
  report slowdowns over the pristine fabric.
* ``online [...]``    — the online control loop: run an
  estimation-driven ``online-*`` policy on a (stochastic) trace and
  report its regret against the clairvoyant ``oracle`` and the
  never-replanning ``online-static`` floor; ``--grid`` runs the full
  stochastic-traces x online-policies grid.
* ``serve [...]``     — run the planner daemon as a service (unix
  socket, TCP, or stdio JSONL); ``--smoke N`` runs the concurrent
  self-test CI uses.
* ``list``            — available collectives, solvers, policies, traces.

``--version`` prints the library version (single-sourced from
``pyproject.toml``) and exits.

The ``plan`` and ``simulate`` subcommands are config-driven:
``--scenario FILE`` loads a declarative :class:`~repro.planner.Scenario`
from JSON (the ``to_dict`` format), ``--dump-scenario`` prints the JSON
for the scenario described by the flags, and (for ``plan``)
``--solver all`` compares every registered engine on the same scenario.
``simulate --json FILE`` writes the full :class:`~repro.sim.SimResult`
dict — per-step timings and link utilization included — for downstream
tooling.

All grid subcommands evaluate through :mod:`repro.engine`: set
``REPRO_CACHE_DIR`` to persist theta values across runs (the second
``figure1`` run of a CI job performs zero LP solves).  Separate runs
sharing one ``REPRO_CACHE_DIR`` also share their LP solves as they go.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ..analysis.adaptivity import compare_policies
from ..collectives.registry import available_collectives
from ..engine import activate_disk_cache
from ..exceptions import ReproError
from ..fabric.reconfiguration import (
    ConstantReconfigurationDelay,
    PerPortReconfigurationDelay,
)
from ..flows import block_stats, default_cache
from ..planner import Scenario, available_solvers, plan
from ..sim import RATE_METHODS, simulate_plan, simulate_workload
from ..units import Gbps, MiB, format_time, ns, us
from ..workload import available_policies
from .config import PAPER_CONFIG
from .degradation import degradation_grid_report, run_degradation_grid
from .figure1 import run_figure1
from .figure2 import run_figure2
from .io import panel_report, write_panel_csv
from .workload_grid import (
    available_traces,
    build_trace,
    run_workload_grid,
    workload_grid_report,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation figures.",
    )
    from .. import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig1 = sub.add_parser("figure1", help="the eight Figure 1 heatmaps")
    fig1.add_argument(
        "--panel",
        default=None,
        help="panel letters to run (e.g. 'aeh'); default: all",
    )
    fig1.add_argument("--n", type=int, default=None, help="override GPU count")
    fig1.add_argument("--csv", type=Path, default=None, help="CSV output directory")

    fig2 = sub.add_parser("figure2", help="the Figure 2 best-of-both heatmap")
    fig2.add_argument("--n", type=int, default=None, help="override GPU count")
    fig2.add_argument("--csv", type=Path, default=None, help="CSV output directory")

    plan_cmd = sub.add_parser(
        "plan", help="plan one scenario with a registered solver"
    )
    _add_scenario_flags(plan_cmd)
    plan_cmd.add_argument(
        "--solver",
        default="dp",
        help="registered solver name, or 'all' to compare every solver",
    )

    sim_cmd = sub.add_parser(
        "simulate",
        help="plan one scenario, then execute the plan on the flow simulator",
    )
    _add_scenario_flags(sim_cmd)
    sim_cmd.add_argument(
        "--solver", default="dp", help="registered solver name"
    )
    sim_cmd.add_argument(
        "--rate-method",
        default="mcf",
        choices=RATE_METHODS,
        help="flow rate allocation on the base topology",
    )
    sim_cmd.add_argument(
        "--accounting",
        default="paper",
        choices=("paper", "physical"),
        help="reconfiguration accounting mode",
    )
    sim_cmd.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the full SimResult dict to this JSON file",
    )

    workload_cmd = sub.add_parser(
        "workload",
        help="plan and execute a multi-phase workload trace with an "
        "online policy",
    )
    _add_scenario_flags(workload_cmd)
    workload_cmd.add_argument(
        "--trace",
        default="training",
        help=f"synthetic trace kind; one of {available_traces()}",
    )
    workload_cmd.add_argument(
        "--phases", type=int, default=6, help="approximate phase budget"
    )
    workload_cmd.add_argument(
        "--policy",
        default="hysteresis",
        help="online policy name, or 'all' to compare every policy",
    )
    workload_cmd.add_argument(
        "--solver", default="dp", help="per-phase solver for 'replan'"
    )
    workload_cmd.add_argument(
        "--model",
        default="constant",
        choices=("constant", "per_port"),
        help="reconfiguration delay model pricing configuration changes",
    )
    workload_cmd.add_argument(
        "--model-base-us",
        type=float,
        default=1.0,
        help="per_port model: fixed delay component (us)",
    )
    workload_cmd.add_argument(
        "--per-port-ns",
        type=float,
        default=500.0,
        help="per_port model: delay per touched port (ns)",
    )
    workload_cmd.add_argument(
        "--threshold",
        type=float,
        default=0.0,
        help="hysteresis switching threshold (relative gain required)",
    )
    workload_cmd.add_argument(
        "--grid",
        action="store_true",
        help="run the full traces x policies workload grid instead "
        "(covers every trace and policy; --trace/--policy do not apply)",
    )
    workload_cmd.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the full WorkloadSimResult (or grid cells) to "
        "this JSON file",
    )

    degradation_cmd = sub.add_parser(
        "degradation",
        help="plan + simulate one collective under degraded fabric "
        "conditions and report slowdowns vs the pristine fabric",
    )
    _add_scenario_flags(degradation_cmd)
    # A high alpha_r keeps the optimal schedule on the (degradable) base
    # ring, where fabric conditions actually bite.
    degradation_cmd.set_defaults(
        algorithm="allreduce_ring", message_mib=4.0, alpha_r_us=1000.0
    )
    degradation_cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        help="seed for the random-failure condition",
    )
    degradation_cmd.add_argument(
        "--json",
        type=Path,
        nargs="?",
        const=Path("-"),
        default=None,
        help="write the grid cells as JSON to FILE (or stdout when no "
        "file is given)",
    )

    online_cmd = sub.add_parser(
        "online",
        help="run an estimation-driven online policy on a trace and "
        "report regret vs the clairvoyant oracle",
    )
    _add_scenario_flags(online_cmd)
    online_cmd.add_argument(
        "--trace",
        default="piecewise",
        help=f"trace kind; one of {available_traces()}",
    )
    online_cmd.add_argument(
        "--phases", type=int, default=12, help="approximate phase budget"
    )
    online_cmd.add_argument(
        "--policy",
        default="online-ewma",
        help="estimation-driven policy (online-ewma / online-window)",
    )
    online_cmd.add_argument(
        "--solver", default="dp", help="per-phase solver for the planner"
    )
    online_cmd.add_argument(
        "--grid",
        action="store_true",
        help="run the stochastic-traces x online-policies grid instead "
        "(--trace/--policy do not apply)",
    )
    online_cmd.add_argument(
        "--json",
        type=Path,
        nargs="?",
        const=Path("-"),
        default=None,
        help="write the RegretReport (or grid cells) as JSON to FILE "
        "(or stdout when no file is given)",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="run the planner daemon as a JSONL service "
        "(unix socket, TCP, or stdio)",
    )
    serve_cmd.add_argument(
        "--socket", default=None, help="unix socket path (default transport)"
    )
    serve_cmd.add_argument(
        "--host", default=None, help="bind TCP on this host instead"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=None, help="TCP port (0 = ephemeral)"
    )
    serve_cmd.add_argument(
        "--stdio",
        action="store_true",
        help="speak the JSONL protocol over stdin/stdout",
    )
    serve_cmd.add_argument(
        "--cache-dir",
        default=None,
        help="persist the resident theta cache to this DiskStore directory "
        "(default: REPRO_CACHE_DIR when set)",
    )
    serve_cmd.add_argument(
        "--batch-window",
        type=float,
        default=2.0,
        help="micro-batch admission window in milliseconds",
    )
    serve_cmd.add_argument(
        "--max-batch",
        type=int,
        default=128,
        help="flush a micro-batch at this many pending plans",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2, help="solver thread pool size"
    )
    serve_cmd.add_argument(
        "--smoke",
        type=int,
        default=None,
        metavar="N",
        help="self-test: N concurrent mixed requests through the async "
        "client, then exit (0 = all succeeded and work was shared)",
    )
    serve_cmd.add_argument(
        "--json",
        action="store_true",
        help="with --smoke, also dump the final metrics snapshot as JSON",
    )

    sub.add_parser(
        "list",
        help="list available collectives, solvers, policies, and traces",
    )
    return parser


def _add_scenario_flags(command: argparse.ArgumentParser) -> None:
    """The declarative-scenario flags shared by plan and simulate."""
    command.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="JSON scenario file (Scenario.to_dict format); overrides flags",
    )
    command.add_argument(
        "--algorithm", default="allreduce_recursive_doubling",
        help="collective algorithm name",
    )
    command.add_argument("--n", type=int, default=64, help="GPU count")
    command.add_argument(
        "--message-mib", type=float, default=64.0, help="per-GPU message (MiB)"
    )
    command.add_argument(
        "--bandwidth-gbps", type=float, default=800.0,
        help="transceiver bandwidth (Gb/s)",
    )
    command.add_argument(
        "--alpha-ns", type=float, default=100.0, help="per-step latency (ns)"
    )
    command.add_argument(
        "--delta-ns", type=float, default=100.0, help="per-hop delay (ns)"
    )
    command.add_argument(
        "--alpha-r-us", type=float, default=10.0,
        help="reconfiguration delay (us)",
    )
    command.add_argument(
        "--dump-scenario",
        action="store_true",
        help="print the scenario JSON instead of running",
    )


def _plan_scenario(args: argparse.Namespace) -> Scenario:
    if args.scenario is not None:
        return Scenario.from_dict(json.loads(args.scenario.read_text()))
    return Scenario.create(
        args.algorithm,
        n=args.n,
        message_size=MiB(args.message_mib),
        bandwidth=Gbps(args.bandwidth_gbps),
        alpha=ns(args.alpha_ns),
        delta=ns(args.delta_ns),
        reconfiguration_delay=us(args.alpha_r_us),
    )


def _decision_char(decision: str) -> str:
    """Compact per-step glyph: G (base), M (matched), or a pool index
    (bracketed when it has more than one digit)."""
    if decision == "base":
        return "G"
    if decision == "matched":
        return "M"
    index = decision.split(":", 1)[1]
    return index if len(index) == 1 else f"[{index}]"


def _run_plan(args: argparse.Namespace) -> int:
    scenario = _plan_scenario(args)
    if args.dump_scenario:
        print(json.dumps(scenario.to_dict(), indent=2))
        return 0
    solvers = (
        available_solvers() if args.solver == "all" else (args.solver,)
    )
    spec = scenario.collective
    print(
        f"scenario: {spec.algorithm}, n={scenario.n}, "
        f"{spec.message_size / MiB(1):g} MiB per GPU, "
        f"alpha_r={format_time(scenario.cost.reconfiguration_delay)}"
    )
    stats = None
    for solver in solvers:
        result = plan(scenario, solver=solver)
        stats = result.cache_stats
        decisions = "".join(_decision_char(d) for d in result.decisions)
        print(
            f"{solver:>10}: {format_time(result.total_time):>10}  "
            f"schedule={decisions}  "
            f"reconfigurations={result.n_reconfigurations}"
        )
    if stats is not None:
        print(
            f"theta cache: {stats.size} entries, "
            f"{stats.hit_rate:.0%} hit rate ({stats.lookups} lookups)"
        )
    _print_solver_counters()
    return 0


def _print_solver_counters() -> None:
    """Extra observability lines for pod-fabric runs.

    Printed *in addition to* the ``theta cache:`` line (which CI greps
    byte-for-byte) and only when the block solver actually did work, so
    flat-topology output is unchanged."""
    bs = block_stats()
    if bs.pod_solves or bs.pods_screened:
        print(
            f"block solver: pod_solves={bs.pod_solves} "
            f"memo_hits={bs.memo_hits} screened={bs.pods_screened}"
        )


def _run_simulate(args: argparse.Namespace) -> int:
    scenario = _plan_scenario(args)
    if args.dump_scenario:
        print(json.dumps(scenario.to_dict(), indent=2))
        return 0
    result = simulate_plan(
        scenario,
        solver=args.solver,
        rate_method=args.rate_method,
        accounting=args.accounting,
    )
    spec = scenario.collective
    decisions = "".join(_decision_char(d) for d in result.decisions)
    print(
        f"scenario: {spec.algorithm}, n={scenario.n}, "
        f"{spec.message_size / MiB(1):g} MiB per GPU, "
        f"alpha_r={format_time(scenario.cost.reconfiguration_delay)}"
    )
    print(
        f"  plan ({result.solver}): {format_time(result.analytic_time):>10}  "
        f"schedule={decisions}"
    )
    print(
        f"  simulated ({result.rate_method}, {result.accounting}): "
        f"{format_time(result.sim_time):>10}  "
        f"model error={result.model_error:.2e}"
    )
    print(
        f"  reconfigurations: {result.n_reconfigurations} "
        f"({format_time(result.reconfiguration_time)} total), "
        f"communication {format_time(result.communication_time)}"
    )
    if result.link_utilization:
        busiest = sorted(
            result.link_utilization, key=lambda item: -item[1]
        )[:3]
        rendered = ", ".join(
            f"{u}->{v}: {value:.1%}" for (u, v), value in busiest
        )
        print(f"  busiest base links: {rendered}")
    if args.json is not None:
        args.json.write_text(json.dumps(result.to_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _workload_model(args: argparse.Namespace):
    """The reconfiguration delay model described by the CLI flags."""
    if args.model == "per_port":
        return PerPortReconfigurationDelay(
            us(args.model_base_us), ns(args.per_port_ns)
        )
    return ConstantReconfigurationDelay(us(args.alpha_r_us))


def _run_workload(args: argparse.Namespace) -> int:
    base = _plan_scenario(args)
    if args.dump_scenario:
        print(json.dumps(base.to_dict(), indent=2))
        return 0
    model = _workload_model(args)

    if args.grid:
        cells = run_workload_grid(
            phases=args.phases,
            reconfiguration_model=model,
            solver=args.solver,
            threshold=args.threshold,
            base=base,
        )
        print(workload_grid_report(cells))
        if args.json is not None:
            args.json.write_text(
                json.dumps([cell.to_dict() for cell in cells], indent=2)
            )
            print(f"wrote {args.json}")
        return 0

    workload = build_trace(args.trace, base, args.phases)
    print(
        f"workload: {args.trace}, {len(workload)} phases, n={workload.n}, "
        f"model={model!r}"
    )

    if args.policy == "all":
        comparison = compare_policies(
            workload,
            solver=args.solver,
            reconfiguration_model=model,
            threshold=args.threshold,
        )
        for policy in comparison.policies:
            plan_result = comparison.plan(policy)
            print(
                f"{policy:>12}: {format_time(plan_result.total_time):>10}  "
                f"reconf={format_time(plan_result.reconfiguration_time)} "
                f"({plan_result.n_reconfigurations})  "
                f"vs replan={comparison.speedup(policy):.2f}x"
            )
        if args.json is not None:
            args.json.write_text(
                json.dumps(
                    [record.to_dict() for record in comparison.records],
                    indent=2,
                )
            )
            print(f"wrote {args.json}")
        return 0

    options = (
        {"threshold": args.threshold} if args.policy == "hysteresis" else {}
    )
    result = simulate_workload(
        workload,
        policy=args.policy,
        solver=args.solver,
        reconfiguration_model=model,
        **options,
    )
    for phase in result.phases:
        decisions = "".join(
            _decision_char(d) for d in result.plan.phases[phase.index].decisions
        )
        print(
            f"  phase {phase.index:>2} {phase.name:<24} "
            f"{format_time(phase.sim_time):>10}  schedule={decisions}  "
            f"reconf={format_time(phase.reconfiguration_time)}"
        )
    print(
        f"end-to-end ({result.policy}): {format_time(result.sim_time)} "
        f"simulated, {format_time(result.analytic_time)} analytic "
        f"(model error={result.model_error:.2e})"
    )
    print(
        f"  reconfigurations: {result.n_reconfigurations} "
        f"({format_time(result.reconfiguration_time)} total); memoryless "
        f"Eq.7 prediction {format_time(result.plan.analytic_eq7_time)}"
    )
    if args.json is not None:
        args.json.write_text(json.dumps(result.to_dict(), indent=2))
        print(f"wrote {args.json}")
    return 0


def _run_online(args: argparse.Namespace) -> int:
    from ..analysis.regret import measure_regret
    from .online_grid import online_grid_report, run_online_grid

    base = _plan_scenario(args)
    if args.dump_scenario:
        print(json.dumps(base.to_dict(), indent=2))
        return 0

    if args.grid:
        cells = run_online_grid(
            phases=args.phases, solver=args.solver, base=base
        )
        print(online_grid_report(cells))
        if args.json is not None:
            payload = json.dumps(
                [cell.to_dict() for cell in cells], indent=2
            )
            if str(args.json) == "-":
                print(payload)
            else:
                args.json.write_text(payload)
                print(f"wrote {args.json}")
        return 0

    workload = build_trace(args.trace, base, args.phases)
    report = measure_regret(workload, policy=args.policy, solver=args.solver)
    print(
        f"online control: {args.trace}, {len(workload)} phases, "
        f"n={workload.n}, policy={report.policy}"
    )
    for phase in report.phases:
        print(
            f"  phase {phase.index:>2} {phase.name:<24} "
            f"{format_time(phase.policy_time):>10}  "
            f"oracle={format_time(phase.oracle_time):>10}  "
            f"cum regret={format_time(phase.cumulative_regret)}"
        )
    print(
        f"{report.policy}: {format_time(report.policy_total)}  "
        f"oracle: {format_time(report.oracle_total)}  "
        f"static: {format_time(report.baseline_total)}"
    )
    print(
        f"  regret {format_time(report.regret)} "
        f"(efficiency {report.efficiency:.1%}, static floor "
        f"{report.baseline_efficiency:.1%}); "
        f"beats static: {'yes' if report.beats_baseline else 'NO'}"
    )
    if args.json is not None:
        payload = json.dumps(report.to_dict(), indent=2)
        if str(args.json) == "-":
            print(payload)
        else:
            args.json.write_text(payload)
            print(f"wrote {args.json}")
    return 0


def _run_degradation(args: argparse.Namespace) -> int:
    base = _plan_scenario(args)
    if args.dump_scenario:
        print(json.dumps(base.to_dict(), indent=2))
        return 0
    cells = run_degradation_grid(base=base, seed=args.seed)
    print(
        f"degradation grid: {base.collective.algorithm}, n={base.n}, "
        f"alpha_r={format_time(base.cost.reconfiguration_delay)}"
    )
    print(degradation_grid_report(cells))
    if args.json is not None:
        payload = json.dumps([cell.to_dict() for cell in cells], indent=2)
        if str(args.json) == "-":
            print(payload)
        else:
            args.json.write_text(payload)
            print(f"wrote {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI main; returns a process exit code.  A refused input (any
    :class:`~repro.exceptions.ReproError`) is reported as one
    ``error:`` line on stderr with exit code 1."""
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    # Opt-in persistent theta tier: with REPRO_CACHE_DIR set, every
    # subcommand reads and feeds the shared on-disk store, so repeated
    # runs (and CI jobs) pay zero LP solves after the first.
    store = activate_disk_cache()
    if store is not None:
        print(f"disk cache: {store.directory} ({len(store)} entries)")
    if args.command == "list":
        print("collectives:")
        for name in available_collectives():
            print(f"  {name}")
        print("solvers:")
        for name in available_solvers():
            print(f"  {name}")
        print("workload policies:")
        for name in available_policies():
            print(f"  {name}")
        print("workload traces:")
        for name in available_traces():
            print(f"  {name}")
        return 0

    if args.command == "plan":
        return _run_plan(args)

    if args.command == "simulate":
        return _run_simulate(args)

    if args.command == "workload":
        return _run_workload(args)

    if args.command == "degradation":
        return _run_degradation(args)

    if args.command == "online":
        return _run_online(args)

    if args.command == "serve":
        from .serve import run_serve

        return run_serve(args)

    config = PAPER_CONFIG
    if args.n is not None:
        config = replace(config, n=args.n)

    if args.command == "figure1":
        results = run_figure1(config, panels=args.panel)
    else:
        results = [run_figure2(config)]

    for result in results:
        print(panel_report(result))
        print()
        if args.csv is not None:
            path = write_panel_csv(
                result, args.csv / f"figure_{result.spec.panel}.csv"
            )
            print(f"wrote {path}")
    stats = default_cache.stats()
    # "misses" counts theta values actually computed in this process;
    # the CI cache-roundtrip job asserts misses=0 on a warm disk cache.
    print(
        f"theta cache: hits={stats.hits} misses={stats.misses} "
        f"disk_hits={stats.disk_hits} size={stats.size}"
    )
    _print_solver_counters()
    return 0


if __name__ == "__main__":
    sys.exit(main())
