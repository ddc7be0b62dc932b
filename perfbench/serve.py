"""Workload ``serve-pods``: a fabric-event stream through the real daemon.

The planner daemon runs in its own process
(``python -m repro.experiments serve --socket ...``, no on-disk theta
store).  One single-threaded asyncio generator drives it open-loop over
two unix-socket connections.  The stream is a sequence of rounds:

* a fabric event on an n=256, 8-pod ``podfabric`` lineage priced with
  ``theta_method="block"`` — a dimmed rank, a failed lane or an uplink
  multiplier, never repeated within a run, so the miss path keeps
  running;
* tenants planning recursive-doubling allreduce for that condition at a
  few message sizes and alpha_r values (duplicates coalesce or hit);
* interleaved warm plan and simulate requests for n=64 paper-grid
  cells, and a ``metrics`` probe every few rounds.

Latency is timed from each request's scheduled send time at a fixed
reference rate below capacity; ``served_rps`` is the completion rate of
bursts offered at an overload rate.  Reference windows and bursts
alternate.  This is the only workload that uses the service layer and
the block/delta pricing path.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    BENCH_DIR,
    close,
    fastest,
    load_reference,
    median,
    pid_peak_rss_mib,
    program_env,
    run_dir,
    tail,
    timed,
)

N = 256
PODS = 8
POD = N // PODS
DIM_LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9)
UPLINK_LEVELS = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
KINDS = ("dim", "lane", "dim", "uplink")
TENANTS = 3
WARM_PER_ROUND = 20
METRICS_EVERY = 4
SETUP_STARTS = 3
WORKERS = min(2, os.cpu_count() or 1)
#: Offered rates (requests/s): the reference rate sits below capacity,
#: the overload rate far above it.
REFERENCE_RPS = 15.0
OVERLOAD_RPS = 150.0
WARM_OVERLOAD_RPS = 400.0
#: Requests per phase, as offered rate x this share of ``--seconds``.
REFERENCE_SHARE = 0.75
MIXED_SHARE = 0.1
WARM_SHARE = 0.1
#: Reference windows and overload bursts alternate this many times.
BLOCKS = 4
CHECKED_CONDITIONS = 3
#: Length of the traced run's reference window, in seconds.
TRACE_SECONDS = 10


# -- the seeded stream ---------------------------------------------------------


def _pod_scenario(message_size, alpha_r, health=None, uplink=None):
    from repro.planner import Scenario
    from repro.units import Gbps, ns

    options = {"pods": PODS}
    if uplink is not None:
        options["uplink_multipliers"] = uplink
    return Scenario.create(
        "allreduce_recursive_doubling",
        n=N,
        message_size=message_size,
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=alpha_r,
        topology="podfabric",
        topology_options=options,
        theta_method="block",
        health=health,
    )


def _grid_cells():
    """``{(panel, row, col): Scenario}`` for the Figure 1 grid."""
    from repro.experiments.config import FIGURE1_PANELS, PAPER_CONFIG
    from repro.experiments.figure1 import panel_scenario
    from repro.planner import scenario_grid

    cells = {}
    cols = len(PAPER_CONFIG.alpha_rs)
    for spec in FIGURE1_PANELS:
        grid = scenario_grid(
            panel_scenario(spec), PAPER_CONFIG.message_sizes, PAPER_CONFIG.alpha_rs
        )
        for index, cell in enumerate(grid):
            cells[(spec.panel, *divmod(index, cols))] = cell
    return cells


@dataclass
class Item:
    """One request of the stream and what its answer is checked against."""

    label: tuple
    request: object
    round: int = -1


class Stream:
    """The seeded request stream; the program sees only the requests."""

    def __init__(self, seed: int):
        from repro.fabric import FabricHealth
        from repro.service import ServiceClient
        from repro.units import MiB, us

        self.health = FabricHealth
        self.requests = ServiceClient
        self.rng = random.Random(seed)
        self.sizes = (MiB(1), MiB(16), MiB(256))
        self.alpha_rs = (us(1), us(10), us(100))
        self.seen: set = set()
        self.next_id = 0
        self.cells = _grid_cells()
        rows, cols = 6, 6
        # One plan per (panel, solver) and one BvN simulation each of
        # recursive doubling and Swing, so every seed offers the same
        # mix of warm work; the seed picks the cells.  (Simulating
        # alltoall or a static ring plan costs seconds.)
        self.warm = [
            ("plan", (panel, self.rng.randrange(rows), self.rng.randrange(cols)), solver)
            for panel in "abcdefgh"
            for solver in ("dp", "static", "bvn")
        ] + [
            ("sim", (panel, self.rng.randrange(rows), self.rng.randrange(cols)), "bvn")
            for panel in "ac"
        ]
        order = self.rng.sample(self.warm, len(self.warm))
        self.warm_cycle = itertools.cycle(order)

    def _id(self) -> str:
        self.next_id += 1
        return f"r{self.next_id}"

    def _condition(self):
        """A fabric condition not yet seen in this run."""
        rng = self.rng
        # The kinds cycle in a fixed order, so every run prices the same
        # mix; the seed picks where each fault lands and how bad it is.
        kind = KINDS[len(self.seen) % len(KINDS)]
        while True:
            if kind == "dim":
                key = (kind, rng.randrange(N), rng.choice(DIM_LEVELS))
            elif kind == "lane":
                pod, offset = rng.randrange(PODS), rng.randrange(POD)
                key = (kind, pod * POD + offset, pod * POD + (offset + 1) % POD)
            else:
                key = (kind, rng.randrange(PODS), rng.choice(UPLINK_LEVELS))
            if key not in self.seen:
                self.seen.add(key)
                return key

    def tenant_scenario(self, condition, size, alpha_r):
        kind = condition[0]
        if kind == "dim":
            health = self.health(port_multipliers={condition[1]: condition[2]})
            return _pod_scenario(size, alpha_r, health=health)
        if kind == "lane":
            health = self.health(failed_transceivers=((condition[1], condition[2]),))
            return _pod_scenario(size, alpha_r, health=health)
        uplink = [1.0] * PODS
        uplink[condition[1]] = condition[2]
        return _pod_scenario(size, alpha_r, uplink=uplink)

    def warm_item(self, entry) -> Item:
        kind, key, solver = entry
        if kind == "plan":
            request = self.requests.plan_request(self.cells[key], solver=solver, id=self._id())
        else:
            request = self.requests.simulate_request(
                self.cells[key], solver=solver, id=self._id()
            )
        return Item((kind, key, solver), request)

    def warm_up_items(self) -> list[Item]:
        """Every warm request once, plus the pristine pod fabric."""
        from repro.units import MiB, us

        pristine = self.requests.plan_request(
            _pod_scenario(MiB(16), us(10)), id=self._id()
        )
        return [Item(("pristine",), pristine)] + [self.warm_item(e) for e in self.warm]

    def rounds(self, count: int) -> list[Item]:
        items = []
        for _ in range(count):
            condition = self._condition()
            first = len(items)
            tenants = []
            for _ in range(TENANTS):
                size = self.rng.choice(self.sizes)
                alpha_r = self.rng.choice(self.alpha_rs)
                request = self.requests.plan_request(
                    self.tenant_scenario(condition, size, alpha_r), id=self._id()
                )
                tenants.append(Item(("tenant", condition, size, alpha_r), request))
            warm = [
                self.warm_item(next(self.warm_cycle)) for _ in range(WARM_PER_ROUND)
            ]
            # Tenants and warm requests interleave, so warm requests
            # arrive while the new condition is being priced.
            for index in range(WARM_PER_ROUND):
                if index < TENANTS:
                    items.append(tenants[index])
                items.append(warm[index])
            if len(self.seen) % METRICS_EVERY == 0:
                request = self.requests.metrics_request(id=self._id())
                items.append(Item(("metrics",), request))
            for item in items[first:]:
                item.round = len(self.seen)
        return items

    def warm_items(self, count: int) -> list[Item]:
        return [self.warm_item(next(self.warm_cycle)) for _ in range(count)]

    def items(self, count: int) -> list[Item]:
        """Whole rounds, about ``count`` requests."""
        per_round = TENANTS + WARM_PER_ROUND + 1.0 / METRICS_EVERY
        return self.rounds(max(1, round(count / per_round)))


# -- the daemon process --------------------------------------------------------


class Daemon:
    """The planner daemon in its own process, on a private unix socket."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        tmp = run_dir()
        tag = f"{os.getpid()}-{time.monotonic_ns()}"
        self.socket = str((tmp / f"d{tag}.sock").relative_to(tmp.parent))
        self.spans_out = str(tmp / f"spans{tag}.json")
        self.proc = None

    def start(self) -> float:
        """Start the daemon; seconds from spawn until it answers."""
        from repro.exceptions import ReproError
        from repro.service import ServiceClient

        if self.traced:
            argv = [sys.executable, str(BENCH_DIR / "daemon_launcher.py")]
            argv += ["--spans-out", self.spans_out]
        else:
            argv = [sys.executable, "-m", "repro.experiments", "serve"]
        argv += ["--socket", self.socket, "--workers", str(WORKERS)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=program_env(), stdout=subprocess.DEVNULL
        )
        deadline = start + 120
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if os.path.exists(self.socket):
                try:
                    with ServiceClient.connect_unix(self.socket, timeout=5) as client:
                        if client.metrics().ok:
                            return time.perf_counter() - start
                except (OSError, ReproError):
                    pass
            time.sleep(0.005)
        raise RuntimeError("daemon did not come up")

    def peak_rss_mib(self) -> float:
        return pid_peak_rss_mib(self.proc.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> dict | None:
        """Stop the daemon; the traced launcher's span dump, if any."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        if not (self.traced and os.path.exists(self.spans_out)):
            return None
        with open(self.spans_out) as fh:
            dump = json.load(fh)
        os.unlink(self.spans_out)
        return dump


# -- the open-loop generator ---------------------------------------------------


@dataclass
class Record:
    label: tuple
    round: int
    due: float
    sent: float
    done: float
    response: object


async def _drive(socket: str, items: list[Item], rate: float) -> dict:
    """Send ``items`` open-loop at ``rate`` over two connections."""
    from repro.exceptions import ReproError
    from repro.service import AsyncServiceClient

    loop = asyncio.get_running_loop()
    clients = [await AsyncServiceClient.connect_unix(socket) for _ in range(2)]
    records: list[Record] = []
    state = {"outstanding": 0, "backlog_max": 0}

    async def fire(index: int, item: Item, due: float) -> None:
        sent = loop.time()
        state["outstanding"] += 1
        state["backlog_max"] = max(state["backlog_max"], state["outstanding"])
        try:
            response = await clients[index % 2].request(item.request)
        except ReproError:
            response = None
        state["outstanding"] -= 1
        records.append(Record(item.label, item.round, due, sent, loop.time(), response))

    tasks = []
    start = loop.time() + 0.01
    try:
        for index, item in enumerate(items):
            due = start + index / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(index, item, due)))
        await asyncio.gather(*tasks)
    finally:
        for client in clients:
            await client.close()
    return {"records": records, "start": start, "backlog_max": state["backlog_max"]}


def drive(socket: str, items: list[Item], rate: float) -> dict:
    return asyncio.run(_drive(socket, items, rate))


def metrics_of(socket: str) -> dict:
    from repro.service import ServiceClient

    with ServiceClient.connect_unix(socket, timeout=30) as client:
        return client.metrics().result


# -- output checks -------------------------------------------------------------


class Checker:
    """Every response ``ok``; grid plans against the stored references;
    simulations and a sample of fabric conditions re-run in-process."""

    def __init__(self, stream: Stream, seed: int):
        self.stream = stream
        self.reference = load_reference("paper_grid_totals.json")
        self.rng = random.Random(seed + 1)

    def failed(self, records: list[Record], replan: bool = True) -> int:
        bad = 0
        tenants: dict = {}
        sims: dict = {}
        for record in records:
            response = record.response
            if response is None or not response.ok:
                bad += 1
                continue
            kind = record.label[0]
            if kind == "plan":
                _, (panel, row, col), solver = record.label
                key = f"{panel}/{row}/{col}/{solver}"
                if not close(response.result["total_time"], self.reference[key]):
                    bad += 1
            elif kind == "sim":
                sims.setdefault(record.label, []).append(response.result["sim_time"])
            elif kind == "tenant":
                tenants.setdefault(record.label, []).append(
                    response.result["total_time"]
                )
        # Identical requests must get identical answers.
        for values in list(sims.values()) + list(tenants.values()):
            bad += sum(1 for value in values if value != values[0])
        if replan:
            bad += self._replan(tenants, sims)
        return bad

    def _replan(self, tenants: dict, sims: dict) -> int:
        from repro.engine import plan_many
        from repro.flows import ThroughputCache
        from repro.planner import PlanRequest
        from repro.sim.executor import simulate_plan

        bad = 0
        labels = sorted(tenants, key=repr)
        for label in self.rng.sample(labels, min(CHECKED_CONDITIONS, len(labels))):
            _, condition, size, alpha_r = label
            scenario = self.stream.tenant_scenario(condition, size, alpha_r)
            cold = plan_many(
                [PlanRequest(scenario=scenario, solver="dp")], cache=ThroughputCache()
            )[0]
            bad += 0 if close(cold.total_time, tenants[label][0]) else 1
        cache = ThroughputCache()
        for label, values in sims.items():
            _, key, solver = label
            local = simulate_plan(self.stream.cells[key], solver=solver, cache=cache)
            bad += 0 if close(local.sim_time, values[0]) else 1
        return bad


# -- the workload --------------------------------------------------------------


def _burst(socket: str, items: list[Item], rate: float) -> dict:
    """A burst offered above capacity, with its seconds at nominal
    machine speed (``common.timed``)."""
    burst, seconds = timed(drive, socket, items, rate)
    burst["seconds"] = seconds
    return burst


def _served_rps(bursts: list[dict]) -> float:
    """Completions per second of the median burst, at nominal machine
    speed."""
    return median(len(burst["records"]) / burst["seconds"] for burst in bursts)


def _paced_rps(bursts: list[dict]) -> float:
    """Completions per second of the fastest burst, in wall time.

    The warm daemon serves about 85% of the 400 req/s offered, so the
    generator's wall-clock pacing sets much of a warm burst's length;
    scaled by machine speed it spread 0.12 over eight runs, the fastest
    burst in wall time 0.07."""
    per_request = [
        (max(r.done for r in burst["records"]) - burst["start"]) / len(burst["records"])
        for burst in bursts
    ]
    return 1.0 / fastest(per_request)


def _round_latency(records: list[Record]) -> dict:
    """Latency from each request's scheduled send time, in ms.

    Every round has the same shape (one new condition, its tenants, the
    warm requests), so rounds are the blocks: ``round_p50_ms`` is a
    round's median request and ``round_tail_ms`` its slowest, the new
    condition's first tenant; each is taken at the fastest round."""
    rounds: dict[int, list[float]] = {}
    for record in records:
        rounds.setdefault(record.round, []).append(1e3 * (record.done - record.due))
    everything = [ms for values in rounds.values() for ms in values]
    tail_ms, tail_pct = tail(everything)
    return {
        "round_p50_ms": fastest(median(v) for v in rounds.values()),
        "round_tail_ms": fastest(max(v) for v in rounds.values()),
        "rounds": len(rounds),
        "requests": len(everything),
        "pooled_p50_ms": median(everything),
        "pooled_tail_ms": tail_ms,
        "pooled_tail_percentile": tail_pct,
    }


def measure(seed: int, seconds: float) -> dict:
    stream = Stream(seed)
    setup_s = []
    for _ in range(SETUP_STARTS - 1):
        probe = Daemon()
        try:
            setup_s.append(timed(probe.start)[1])
        finally:
            probe.stop()
    daemon = Daemon()
    reference, mixed, warm = [], [], []
    count = {
        "reference": REFERENCE_RPS * REFERENCE_SHARE * seconds / BLOCKS,
        "mixed": OVERLOAD_RPS * MIXED_SHARE * seconds / BLOCKS,
        "warm": WARM_OVERLOAD_RPS * WARM_SHARE * seconds / BLOCKS,
    }
    try:
        setup_s.append(timed(daemon.start)[1])
        warm_up = drive(daemon.socket, stream.warm_up_items(), rate=1e6)
        # The phases interleave, so a slow stretch of the machine
        # touches every metric a little rather than one metric wholly.
        for _ in range(BLOCKS):
            items = stream.items(count["reference"])
            reference += drive(daemon.socket, items, REFERENCE_RPS)["records"]
            mixed.append(_burst(daemon.socket, stream.items(count["mixed"]), OVERLOAD_RPS))
            items = stream.warm_items(max(1, int(count["warm"])))
            warm.append(drive(daemon.socket, items, WARM_OVERLOAD_RPS))
        peak_rss = daemon.peak_rss_mib()
    finally:
        daemon.stop()
    latency = _round_latency(reference)
    records = warm_up["records"] + reference
    for burst in mixed + warm:
        records += burst["records"]
    return {
        "setup_s": median(setup_s),
        "peak_rss_mib": peak_rss,
        "metrics": {
            "cold_ops_per_s": _served_rps(mixed),
            "warm_ops_per_s": _paced_rps(warm),
        },
        "attempted": len(records),
        "failed": Checker(stream, seed).failed(records),
        "details": {
            "reference_rps": REFERENCE_RPS,
            "overload_rps": OVERLOAD_RPS,
            "warm_overload_rps": WARM_OVERLOAD_RPS,
            "conditions": len(stream.seen),
            **latency,
        },
    }


def _reference_window(daemon: Daemon, stream: Stream, seconds: float, mark=None) -> dict:
    """Warm-up, then the reference window with daemon counters and CPU
    time taken on both sides of it."""
    warm = drive(daemon.socket, stream.warm_up_items(), rate=1e6)
    if mark is not None:
        mark()
    before = metrics_of(daemon.socket)
    cpu = daemon.cpu_seconds()
    count = max(1, int(REFERENCE_RPS * REFERENCE_SHARE * seconds))
    window = drive(daemon.socket, stream.items(count), rate=REFERENCE_RPS)
    return {
        "warm": warm,
        "window": window,
        "cpu_s": daemon.cpu_seconds() - cpu,
        "before": before,
        "after": metrics_of(daemon.socket),
    }


def trace(seed: int, recorder, install) -> dict:
    """The reference window against the plain daemon, then against the
    launcher that records spans inside the daemon process."""
    runs = {}
    for traced in (False, True):
        stream = Stream(seed)
        daemon = Daemon(traced=traced)
        mark = None
        if traced:
            # Spans and counters restart once the warm-up has drained.
            def mark():
                daemon.proc.send_signal(signal.SIGUSR1)
                time.sleep(0.1)

        try:
            daemon.start()
            run = _reference_window(daemon, stream, seconds=TRACE_SECONDS, mark=mark)
        finally:
            dump = daemon.stop()
        run.update(dump=dump, stream=stream)
        runs[traced] = run
    plain, traced = runs[False], runs[True]
    dump = traced["dump"]
    records = traced["window"]["records"]
    before, after = traced["before"], traced["after"]
    delta = {key: after[key] - before[key] for key in ("dispatched", "coalesced", "batches")}
    sent = sum(1 for r in records if r.label[0] != "metrics")
    problems = []
    if delta["dispatched"] != sent - delta["coalesced"]:
        problems.append(
            f"daemon dispatched={delta['dispatched']} != sent={sent} - "
            f"coalesced={delta['coalesced']}"
        )
    client_ms = [1e3 * (r.done - r.sent) for r in records]
    server_ms = [1e3 * r.response.elapsed_s for r in records if r.response is not None]
    service = {
        "service.dispatched": delta["dispatched"],
        "service.coalesced": delta["coalesced"],
        "service.batches": delta["batches"],
        "service.largest_batch": after["largest_batch"],
        "service.server_p50_ms": median(server_ms),
        "service.wire_ms": median(client_ms) - median(server_ms),
        "service.gen_lag_ms": max(1e3 * (r.sent - r.due) for r in records),
        "service.backlog_max": traced["window"]["backlog_max"],
    }
    checker = Checker(traced["stream"], seed)
    all_records = traced["warm"]["records"] + records
    return {
        "layers": dump["layers"],
        "counters": dump["counters"],
        "installed": {k: dump[k] for k in ("absent", "absent_spans", "bypassed")},
        "service": service,
        "problems": problems,
        "plain_s": plain["cpu_s"],
        "traced_s": traced["cpu_s"],
        "overhead_basis": "daemon CPU seconds over the reference window",
        "attempted": len(all_records),
        "failed": checker.failed(all_records, replan=False),
        "readings": {
            "wire_ms": service["service.wire_ms"],
            "in_process_warm_p50_ms_roadmap": 0.2,
            "server_p50_ms": service["service.server_p50_ms"],
            "client_p50_ms": median(client_ms),
        },
    }
