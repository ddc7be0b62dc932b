"""Perf-regression gate over the BENCH_*.json baselines.

Compares a fresh benchmark run (``benchmarks/results/``, written by
``--bench-json``) against the checked-in baselines
(``benchmarks/baselines/``) and fails if any case regressed by more
than the threshold *after* normalizing out machine speed.

Absolute wall times are not comparable across machines (the baselines
were recorded on one box, CI runs on another), so the gate first
estimates a machine-speed factor: the **median** of the per-case
``fresh / baseline`` time ratios of a benchmark file.  A uniformly
slower machine moves every ratio together and the median absorbs it; a
real regression moves one case against its siblings and survives the
normalization.  Files with fewer than three shared cases skip the
median trick and fall back to a generous absolute ratio (the threshold
plus 2x machine headroom) rather than produce false alarms.

Baselines can additionally be **CPU-tagged**: a file named
``BENCH_<name>.cpu<K>.json`` is the baseline recorded on a K-CPU
machine.  For each fresh file the gate reads the recording machine's
CPU count (the ``machine.cpu_count`` field ``--bench-json`` writes,
falling back to ``os.cpu_count()``) and prefers the matching tagged
baseline; when no tag matches it falls back — with a warning — to the
untagged ``BENCH_<name>.json``, or failing that to the nearest tagged
one.  Cases whose timing scales with the core count are then compared
against a baseline from a like-for-like machine, which removes a whole
class of false alarms the median trick cannot.

Usage::

    python benchmarks/check_regression.py \
        [--baseline benchmarks/baselines] [--fresh benchmarks/results] \
        [--threshold 0.25]

Exit status 1 when any case regresses; the offending cases are listed
on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
from pathlib import Path

#: Headroom multiplier for files too small to median-normalize.
SMALL_FILE_HEADROOM = 2.0

#: ``BENCH_<name>.cpu<K>.json`` — a baseline tagged with its machine's
#: CPU count.
_CPU_TAG = re.compile(r"^(BENCH_.+?)\.cpu(\d+)\.json$")


def split_cpu_tag(path: Path) -> tuple[str, int | None]:
    """(logical ``BENCH_<name>.json`` name, CPU tag or ``None``)."""
    match = _CPU_TAG.match(path.name)
    if match:
        return f"{match.group(1)}.json", int(match.group(2))
    return path.name, None


def fresh_cpu_count(fresh_path: Path) -> int:
    """The CPU count the fresh run recorded (``os.cpu_count()`` fallback)."""
    try:
        recorded = json.loads(fresh_path.read_text())["machine"]["cpu_count"]
        return int(recorded)
    except (KeyError, TypeError, ValueError, OSError):
        return os.cpu_count() or 1


def select_baseline(
    variants: dict[int | None, Path], cpus: int
) -> tuple[Path, str | None]:
    """Pick the baseline variant for a machine; (path, warning or None).

    Preference: exact CPU tag > untagged > nearest tag (always with a
    warning once the exact tag misses).
    """
    exact = variants.get(cpus)
    if exact is not None:
        return exact, None
    untagged = variants.get(None)
    if untagged is not None:
        tags = sorted(k for k in variants if k is not None)
        if tags:
            return untagged, (
                f"no cpu{cpus} baseline (tags: {tags}); "
                f"falling back to the untagged baseline"
            )
        return untagged, None
    nearest = min(
        (k for k in variants if k is not None),
        key=lambda k: abs(k - cpus),
    )
    return variants[nearest], (
        f"no cpu{cpus} or untagged baseline; "
        f"falling back to cpu{nearest} (nearest tag)"
    )


def load_cases(path: Path) -> dict[str, float]:
    """Case name -> mean wall seconds from one BENCH_*.json file."""
    data = json.loads(path.read_text())
    return {
        case: float(entry["mean_s"])
        for case, entry in data.get("cases", {}).items()
        if entry.get("mean_s", 0) > 0
    }


def check_file(
    baseline_path: Path, fresh_path: Path, threshold: float
) -> list[str]:
    """Regression messages for one benchmark file (empty = clean)."""
    baseline = load_cases(baseline_path)
    fresh = load_cases(fresh_path)
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        return [f"{fresh_path.name}: no cases shared with the baseline"]
    ratios = {case: fresh[case] / baseline[case] for case in shared}
    if len(shared) >= 3:
        machine = statistics.median(ratios.values())
        limit = 1.0 + threshold
    else:
        machine = 1.0
        limit = (1.0 + threshold) * SMALL_FILE_HEADROOM
    problems = []
    for case in shared:
        normalized = ratios[case] / machine
        if normalized > limit:
            problems.append(
                f"{fresh_path.name}::{case}: {normalized:.2f}x baseline "
                f"(raw {ratios[case]:.2f}x, machine factor {machine:.2f}x, "
                f"limit {limit:.2f}x)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    root = Path(__file__).parent
    parser.add_argument(
        "--baseline", type=Path, default=root / "baselines",
        help="directory of checked-in BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh", type=Path, default=root / "results",
        help="directory of freshly recorded BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="allowed relative regression after machine normalization",
    )
    args = parser.parse_args(argv)

    # Group baseline files by logical name; tagged variants
    # (BENCH_<name>.cpu<K>.json) collapse onto one logical baseline.
    grouped: dict[str, dict[int | None, Path]] = {}
    for path in sorted(args.baseline.glob("BENCH_*.json")):
        logical, tag = split_cpu_tag(path)
        grouped.setdefault(logical, {})[tag] = path
    if not grouped:
        print(f"no baselines under {args.baseline}", file=sys.stderr)
        return 1
    problems: list[str] = []
    checked = 0
    for logical, variants in sorted(grouped.items()):
        fresh_path = args.fresh / logical
        if not fresh_path.exists():
            problems.append(
                f"{logical}: baseline exists but the fresh run "
                f"produced no file (bench module missing or renamed?)"
            )
            continue
        baseline_path, warning = select_baseline(
            variants, fresh_cpu_count(fresh_path)
        )
        if warning:
            print(f"warning: {logical}: {warning}", file=sys.stderr)
        problems.extend(check_file(baseline_path, fresh_path, args.threshold))
        checked += 1
    if problems:
        print("perf regression gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(
        f"perf regression gate OK: {checked} benchmark file(s), "
        f"threshold {args.threshold:.0%} (median-normalized)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
