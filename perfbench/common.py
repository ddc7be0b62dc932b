"""Shared helpers: locating the program, statistics, memory, machine."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCES = BENCH_DIR / "references"


def checkout_root() -> Path:
    """The checkout the benchmark runs from (its working directory)."""
    return Path.cwd()


def program_env() -> dict[str, str]:
    """Environment for child processes running the program from source.

    ``REPRO_CACHE_DIR`` is dropped so no run warms from an on-disk theta
    store left behind by another."""
    env = dict(os.environ)
    env.pop("REPRO_CACHE_DIR", None)
    src = str(checkout_root() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import ``repro`` from the checkout's ``src/``, or exit non-zero."""
    src = checkout_root() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return repro


def run_dir() -> Path:
    """Run-time files (sockets, daemon span dumps) inside the checkout."""
    path = checkout_root() / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def load_reference(name: str):
    with open(REFERENCES / name) as fh:
        return json.load(fh)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def median(values) -> float:
    return float(statistics.median(values))


def fastest(values) -> float:
    """The fastest of repeated, identical blocks of work."""
    return float(min(values))


#: Seconds the reference kernel takes at the nominal machine speed (a
#: 2-vCPU Intel Xeon container on a quiet host).
KERNEL_NOMINAL_S = 0.009


def _kernel() -> None:
    """Fixed work that does not touch the program: allocation-heavy
    interpreter work (tuples, dicts, a keyed sort).  Over the same runs
    on a shared host, it tracked the machine's speed for every workload
    better than a plain arithmetic loop or many small numpy calls."""
    table = {}
    for i in range(20_000):
        table[(i, i % 64)] = [i, str(i)]
    sorted(table, key=lambda key: -key[0])


def kernel_seconds() -> float:
    """The kernel's fastest of three runs, so one preempted run does not
    count."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of ``fn(*args, **kwargs)``, the seconds at
    the nominal machine speed.

    On a shared machine the CPU speed drifts with other tenants' load,
    by up to 1.8x over stretches of seconds to minutes, so a whole run
    can land in a slow stretch.  The reference kernel is timed just
    before and just after the block, and the block's wall time is scaled
    by ``KERNEL_NOMINAL_S`` over the kernel's mean: a block that took
    twice as long because the machine ran at half speed reads the same.
    The kernel does not touch the program, so the program's own speed-ups
    still show in full."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    return result, elapsed * KERNEL_NOMINAL_S / ((before + after) / 2)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least ten samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    index = n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def setup_times(argv: list[str], count: int) -> list[float]:
    """Seconds of ``count`` fresh processes that import the program and
    build the workload's inputs, each from spawn to exit, at nominal
    machine speed (``timed``)."""
    times = []
    for _ in range(count):
        _, seconds = timed(
            subprocess.run,
            argv,
            env=program_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(seconds)
    return times


def machine() -> dict[str, object]:
    """The machine block every report carries."""
    import networkx
    import numpy
    import scipy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "highspy": importlib.util.find_spec("highspy") is not None,
    }


_INCREMENTAL_FIELDS = (
    "delta_solves",
    "full_solves",
    "dirty_pods_solved",
    "clean_pods_reused",
    "pods_screened",
)


def raw_counters(caches=()) -> dict[str, int]:
    """Process-wide counts read through the program's public stats
    functions.  A stats function a later version no longer has is
    skipped; the counters it fed are then missing from the result."""
    out: dict[str, int] = {}
    if caches:
        stats = [cache.stats() for cache in caches]
        out["flows.cache.hits"] = sum(s.hits for s in stats)
        out["flows.cache.misses"] = sum(s.misses for s in stats)
    try:
        from repro.flows import block_stats
    except ImportError:
        pass
    else:
        block = block_stats()
        for name in ("pod_solves", "memo_hits", "pods_screened"):
            out[f"flows.block.{name}"] = getattr(block, name)
    try:
        from repro.flows import incremental_stats
    except ImportError:
        pass
    else:
        inc = incremental_stats()
        for name in _INCREMENTAL_FIELDS:
            out[f"flows.incremental.{name}"] = getattr(inc, name)
    try:
        from repro.sim.rates import incidence_build_count
    except ImportError:
        pass
    else:
        out["sim.incidence_builds"] = incidence_build_count()
    return out


def counters(after: dict, before: dict | None = None) -> dict[str, float]:
    """The reported counters over an interval, with their ratios."""
    before = before or {}
    out = {key: value - before.get(key, 0) for key, value in after.items()}
    if "flows.cache.hits" in out:
        looked = out["flows.cache.hits"] + out["flows.cache.misses"]
        out["flows.cache.hit_ratio"] = out["flows.cache.hits"] / looked if looked else 0.0
    if "flows.incremental.delta_solves" in out:
        reused = out.pop("flows.incremental.clean_pods_reused") + out.pop(
            "flows.incremental.pods_screened"
        )
        considered = reused + out.pop("flows.incremental.dirty_pods_solved")
        out["flows.incremental.reuse_ratio"] = reused / considered if considered else 0.0
    return out
