"""Workload ``online-moe``: the closed control loop against the oracle.

``measure_regret(policy="online-ewma")`` on ``drifting_moe_trace`` at
n=64 with ``layers=6``: 12 phases alternating recursive-doubling
allreduce and alltoall.  Each trace runs once on a fresh theta cache
(cold) and once more on the same cache (warm: the flow simulator, the
rate estimator, ``OnlineController`` and the per-port physical DP with
theta already priced).  It is the only workload that simulates; it has
no pods and no service.

Every run times the same traces, ``TRACE_SET``; the run's seed orders
them.  Traces differ in cost by up to 1.45x, so a trace drawn by the
seed would make a run's figure follow the draw, not the program.  Their
efficiencies, with those of the rest of a pool of 40 trace seeds, are
stored in ``references/online_efficiency.json``.
"""

from __future__ import annotations

import random
import time

from common import close, load_reference, median, timed

N = 64
LAYERS = 6
POOL = tuple(range(40))
#: The traces every run times, each repeated until the time is up.
TRACE_SET = (11, 8)


def base_scenario():
    from repro.planner import Scenario
    from repro.units import Gbps, MiB, ns, us

    return Scenario.create(
        "allreduce_recursive_doubling",
        n=N,
        message_size=MiB(8),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def trace_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(TRACE_SET, len(TRACE_SET))


def build_inputs(seed: int) -> list:
    from repro.workload import drifting_moe_trace

    base = base_scenario()
    return [drifting_moe_trace(base, layers=LAYERS, seed=s) for s in trace_seeds(seed)]


class Online:
    """Regret runs, timed, with every report checked."""

    def __init__(self):
        from repro.analysis import measure_regret
        from repro.flows import ThroughputCache
        from repro.workload import drifting_moe_trace

        self.measure_regret = measure_regret
        self.cache_type = ThroughputCache
        self.make_trace = drifting_moe_trace
        self.base = base_scenario()
        self.reference = load_reference("online_efficiency.json")
        self.cache = None
        self.attempted = 0
        self.failed = 0
        self.efficiency = []

    def workload(self, trace_seed: int):
        return self.make_trace(self.base, layers=LAYERS, seed=trace_seed)

    def regret(self, workload, cache):
        """``(seconds, report)``, the seconds at nominal machine speed."""
        report, seconds = timed(
            self.measure_regret, workload, policy="online-ewma", cache=cache
        )
        return seconds, report

    def check(self, trace_seed: int, report, again=None) -> None:
        self.attempted += len(report.phases)
        ok = (
            close(report.efficiency, self.reference[str(trace_seed)])
            and report.oracle_total <= report.policy_total * (1 + 1e-12)
            and len(report.phases) == 2 * LAYERS
        )
        if again is not None:
            ok = ok and (again.policy_total, again.oracle_total, again.baseline_total) == (
                report.policy_total,
                report.oracle_total,
                report.baseline_total,
            )
        if not ok:
            self.failed += len(report.phases)

    def pair(self, trace_seed: int) -> tuple[float, float]:
        """Cold then warm regret on one trace: (cold_s, warm_s)."""
        workload = self.workload(trace_seed)
        cache = self.cache_type()
        self.cache = cache
        cold_s, report = self.regret(workload, cache)
        self.check(trace_seed, report)
        warm_s, again = self.regret(workload, cache)
        self.check(trace_seed, again, report)
        self.efficiency.append(report.efficiency)
        return cold_s, warm_s

    def warm_up(self) -> None:
        """Lazy imports and the shared topology, outside the timing: a
        short trace whose seed is outside the pool."""
        workload = self.make_trace(self.base, layers=1, seed=10_000)
        self.measure_regret(workload, policy="online-ewma", cache=self.cache_type())


def measure(seed: int, seconds: float) -> dict:
    online = Online()
    online.warm_up()
    seeds = trace_seeds(seed)
    cold = {s: [] for s in seeds}
    warm = {s: [] for s in seeds}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for trace_seed in seeds:
            cold_s, warm_s = online.pair(trace_seed)
            cold[trace_seed].append(cold_s)
            warm[trace_seed].append(warm_s)
    phases = 2 * LAYERS * len(seeds)
    cold_s = sum(median(cold[s]) for s in seeds)
    warm_s = sum(median(warm[s]) for s in seeds)
    return {
        "metrics": {
            "cold_ops_per_s": phases / cold_s,
            "warm_ops_per_s": phases / warm_s,
        },
        "attempted": online.attempted,
        "failed": online.failed,
        "details": {
            "trace_seeds": seeds,
            "cold_ms_per_phase": 1e3 * cold_s / phases,
            "warm_ms_per_phase": 1e3 * warm_s / phases,
            "repeats": len(cold[seeds[0]]),
            "oracle_efficiency": sum(online.efficiency) / len(online.efficiency),
        },
    }


def trace(seed: int, recorder, install) -> dict:
    """Untraced cold/warm pair, then the same pair traced."""
    from repro.workload import plan_workload

    from common import counters, raw_counters

    online = Online()
    online.warm_up()
    trace_seed = trace_seeds(seed)[0]
    start = time.perf_counter()
    online.pair(trace_seed)
    plain_s = time.perf_counter() - start

    # Planning alone, on the warm cache: controller vs clairvoyant oracle.
    workload = online.workload(trace_seed)
    cache = online.cache
    planning = {}
    for policy in ("online-ewma", "oracle"):
        start = time.perf_counter()
        plan_workload(workload, policy=policy, cache=cache)
        planning[policy] = (time.perf_counter() - start) / len(workload)

    installed = install(recorder)
    before = raw_counters()
    start = time.perf_counter()
    online.pair(trace_seed)
    traced_s = time.perf_counter() - start
    layers = recorder.layers()
    counts = counters(raw_counters((online.cache,)), before)
    problems = []
    rates, builds = layers["sim.rates"]["count"], counts.get("sim.incidence_builds", 0)
    if "sim.rates" not in installed["absent_spans"] and builds > rates:
        problems.append(f"sim.incidence_builds={builds} > sim.rates.calls={rates}")
    return {
        "layers": layers,
        "counters": counts,
        "installed": installed,
        "problems": problems,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "attempted": online.attempted,
        "failed": online.failed,
        "readings": {
            "trace_seed": trace_seed,
            "oracle_efficiency": online.efficiency[-1],
            "online_planning_ms_per_phase": 1e3 * planning["online-ewma"],
            "oracle_planning_ms_per_phase": 1e3 * planning["oracle"],
            "online_over_oracle_planning": planning["online-ewma"] / planning["oracle"],
            "rates_share_of_cold_and_warm": layers["sim.rates"]["total_s"] / traced_s,
        },
    }
