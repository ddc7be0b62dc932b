"""Workload ``paper-grid``: the full n=64 Figure 1 grid.

8 panels x 6 message sizes x 6 alpha_r x {dp, static, bvn} = 864 plans
through the public ``run_figure1`` / ``plan_many`` path on the default
serial backend.  Each cycle is one cold pass on a fresh
``ThroughputCache`` (LP-bound: the theta miss path) followed by warm
passes on the same cache (pure cache hits plus the DP: the planning hot
path).  It never simulates and has no pods.

The seed shuffles the panel order; the grid itself is the paper's.
"""

from __future__ import annotations

import random
import time

from common import close, load_reference, median, timed

PANELS = "abcdefgh"
SOLVERS = ("dp", "static", "bvn")
PLANS = 8 * 36 * len(SOLVERS)
WARM_PASSES = 8


def build_inputs(seed: int) -> str:
    order = list(PANELS)
    random.Random(seed).shuffle(order)
    return "".join(order)


def totals(panel_results) -> dict[str, float]:
    """``{"<panel>/<row>/<col>/<solver>": total_time}`` for every plan."""
    out = {}
    for result in panel_results:
        grid = result.grid
        surfaces = {"dp": grid.opt, "static": grid.static, "bvn": grid.bvn}
        rows, cols = grid.opt.shape
        for row in range(rows):
            for col in range(cols):
                for solver in SOLVERS:
                    key = f"{result.spec.panel}/{row}/{col}/{solver}"
                    out[key] = float(surfaces[solver][row, col])
    return out


def check(values: dict[str, float], reference: dict[str, float]) -> int:
    """Plans that disagree with the stored reference at 1e-9, or whose
    cell has dp above min(static, bvn)."""
    bad = {key for key, value in values.items() if not close(value, reference[key])}
    bad |= set(reference) - set(values)
    for key, value in values.items():
        if key.endswith("/dp"):
            cell = key[: -len("dp")]
            best = min(values[cell + "static"], values[cell + "bvn"])
            if value > best * (1 + 1e-12):
                bad.add(key)
    return len(bad)


class Grid:
    """One cold pass and its warm passes, timed, with every output checked."""

    def __init__(self, seed: int):
        from repro.experiments.figure1 import run_figure1
        from repro.flows import ThroughputCache

        self.run_figure1 = run_figure1
        self.cache_type = ThroughputCache
        self.order = build_inputs(seed)
        self.reference = load_reference("paper_grid_totals.json")
        self.cache = None
        self.attempted = 0
        self.failed = 0

    def warm_up(self) -> None:
        """Lazy imports and the shared ring topology, outside the timing."""
        self.run_figure1(panels="a", cache=self.cache_type())

    def _pass(self) -> tuple[list[float], dict]:
        """Every panel once, one call each; per-panel seconds and totals."""
        values, panel_s = {}, []
        for panel in self.order:
            start = time.perf_counter()
            results = self.run_figure1(panels=panel, cache=self.cache)
            panel_s.append(time.perf_counter() - start)
            values.update(totals(results))
        self.attempted += PLANS
        return panel_s, values

    def cold(self) -> tuple[float, list[float], dict]:
        """A pass on a fresh cache, checked against the references:
        its seconds at nominal machine speed, per-panel wall seconds and
        the totals."""
        self.cache = self.cache_type()
        (panel_s, values), seconds = timed(self._pass)
        self.failed += check(values, self.reference)
        return seconds, panel_s, values

    def warm(self, cold_values: dict) -> tuple[float, list[float]]:
        """A pass on the cold pass's cache; it must match bit for bit."""
        (panel_s, values), seconds = timed(self._pass)
        self.failed += sum(1 for key, value in cold_values.items() if values[key] != value)
        return seconds, panel_s


def measure(seed: int, seconds: float) -> dict:
    grid = Grid(seed)
    grid.warm_up()
    cold, warm, cold_panels, warm_panels = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cold_s, panels, values = grid.cold()
        cold.append(cold_s)
        cold_panels += panels
        for _ in range(WARM_PASSES):
            warm_s, panels = grid.warm(values)
            warm.append(warm_s)
            warm_panels += panels
        if time.perf_counter() >= deadline:
            break
    return {
        "metrics": {
            "cold_ops_per_s": PLANS / median(cold),
            "warm_ops_per_s": PLANS / median(warm),
        },
        "attempted": grid.attempted,
        "failed": grid.failed,
        "details": {
            "cold_passes": len(cold),
            "warm_passes": len(warm),
            "warm_panel_p50_ms": 1e3 * median(warm_panels),
            "cold_panel_p50_ms": 1e3 * median(cold_panels),
        },
    }


def unit(grid: Grid) -> float:
    """The traced unit, untraced: one cold pass and its warm passes."""
    start = time.perf_counter()
    _, _, values = grid.cold()
    for _ in range(WARM_PASSES):
        grid.warm(values)
    return time.perf_counter() - start


def trace(seed: int, recorder, install) -> dict:
    """Untraced unit, then the same unit traced; spans cover the latter."""
    from common import counters, raw_counters

    grid = Grid(seed)
    grid.warm_up()
    plain = unit(grid)
    installed = install(recorder)
    before = raw_counters()
    start = time.perf_counter()
    _, panels, values = grid.cold()
    cold_s = sum(panels)
    cold_layers = recorder.layers()
    cold_counts = counters(raw_counters((grid.cache,)), before)
    for _ in range(WARM_PASSES):
        grid.warm(values)
    wall = time.perf_counter() - start
    layers = recorder.layers()
    counts = counters(raw_counters((grid.cache,)), before)
    lp, highs = layers["flows.lp"]["count"], layers["flows.highs"]["count"]
    problems = []
    if not {"flows.lp", "flows.highs"} & set(installed["absent_spans"]):
        # Every LP is one HiGHS solve for one theta cache miss.
        if highs != lp:
            problems.append(f"flows.highs.calls={highs} != flows.lp.calls={lp}")
        if not 0 < lp <= cold_counts["flows.cache.misses"]:
            problems.append(
                f"flows.lp.calls={lp} not within (0, cold misses="
                f"{cold_counts['flows.cache.misses']}]"
            )
        if lp != cold_layers["flows.lp"]["count"]:
            problems.append("warm passes solved LPs")
    if counts["flows.cache.misses"] != cold_counts["flows.cache.misses"]:
        problems.append("warm passes missed the theta cache")
    return {
        "layers": layers,
        "counters": counts,
        "installed": installed,
        "problems": problems,
        "plain_s": plain,
        "traced_s": wall,
        "attempted": grid.attempted,
        "failed": grid.failed,
        "readings": {
            "cold_pass_s": cold_s,
            "highs_share_of_cold": cold_layers["flows.highs"]["total_s"] / cold_s,
            "lp_share_of_cold": cold_layers["flows.lp"]["total_s"] / cold_s,
            "collectives_build_share_of_cold": cold_layers["collectives.build"]["total_s"]
            / cold_s,
            "lp_solves_per_cold_pass": lp,
        },
    }
