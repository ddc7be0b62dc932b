"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  Instead :func:`install` replaces
each layer's public callable with a timing wrapper, everywhere the
package holds a reference to it: the defining module, every module that
bound it with ``from ... import``, and the class dictionaries of
methods.  A span records calls, total time and self time (its duration
minus the time its child spans cover, on the same thread).

A callable that a later version of the program no longer has is
reported as absent rather than failing the run.  A reference to an
original callable that the wrappers could not replace (a registry
entry, a default argument) is reported as a bypass, which fails the
traced run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: span name -> callables it wraps.  ``module:attr`` is a module-level
#: function; ``module:Class.method`` a method, wrapped on ``Class`` and
#: on every subclass that overrides it.
SPANS: dict[str, tuple[str, ...]] = {
    "collectives.build": ("repro.planner.scenario:CollectiveSpec.build",),
    "planner.step_costs": ("repro.planner.scenario:Scenario.step_costs",),
    "flows.theta": ("repro.flows:compute_theta", "repro.flows.batch:theta_batch"),
    "flows.lp": ("repro.flows.concurrent_flow:max_concurrent_flow",),
    "flows.highs": ("repro.flows.concurrent_flow:linprog",),
    "flows.block": ("repro.flows.block:pod_theta", "repro.flows.delta:pod_theta_parts"),
    "engine.plan_context": (
        "repro.engine.incremental:PlanContext.price",
        "repro.engine.incremental:prewarm_scenario_context",
    ),
    "core.dp": (
        "repro.core.optimizer_dp:optimize_schedule",
        "repro.core.optimizer_dp:optimize_schedule_physical",
    ),
    "fabric.reconfig": ("repro.fabric.reconfiguration:ReconfigurationModel.delay",),
    "sim.run": ("repro.sim.flowsim:FlowLevelSimulator.run",),
    "sim.rates": ("repro.sim.rates:allocate_rates",),
    "topology.hop_distance": ("repro.topology.base:Topology.hop_distance",),
    "control.observe": ("repro.control.estimator:DemandEstimator.observe",),
    "control.decide": ("repro.control.controller:OnlineController.decide",),
    "engine.plan_many": ("repro.engine.api:plan_many",),
}

#: Only these packages have their references to an original replaced.
#: ``flows.highs`` wraps ``linprog`` as the flow layer resolves it, so
#: scipy's own module (and any other layer's solver use) is left alone.
_SCOPE = {"flows.highs": "repro.flows"}


class Recorder:
    """Thread-aware span statistics: calls, total and self seconds."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}

    def reset(self) -> None:
        with self._lock:
            for stats in self.stats.values():
                stats[:] = [0, 0.0, 0.0]

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        lock = self._lock
        frames_of = self._frames

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frames = frames_of()
            # A span re-entered on one thread (plan_many inside
            # plan_many) counts its time once, at the outermost frame.
            outer = not any(frame[0] == name for frame in frames)
            frame = [name, 0.0]
            frames.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][1] += elapsed
                with lock:
                    stats[0] += 1
                    if outer:
                        stats[1] += elapsed
                    stats[2] += elapsed - frame[1]

        return span

    def layers(self) -> dict[str, dict[str, float]]:
        """``{span: {count, total_s, self_s}}`` — the shape the program's
        own ``--bench-json`` layer table is planned to use."""
        with self._lock:
            return {
                name: {"count": s[0], "total_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            }


def _resolve(target: str):
    """(owner, attr, original) or None when the program lacks it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if original is None or not callable(original):
        return None
    return owner, parts[-1], original


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _modules(prefix: str):
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def install(recorder: Recorder) -> dict[str, list[str]]:
    """Wrap every span's callables; return ``{"absent": [...],
    "absent_spans": [...], "bypassed": [...]}`` describing what could
    not be wrapped."""
    import repro  # noqa: F401  (loads every layer before scanning)

    absent: list[str] = []
    originals: dict[int, tuple[str, object]] = {}
    for name, targets in SPANS.items():
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                absent.append(target)
                continue
            owner, attr, original = resolved
            if isinstance(owner, type):
                for cls in _subclasses(owner):
                    if attr in cls.__dict__:
                        method = cls.__dict__[attr]
                        setattr(cls, attr, recorder.wrap(name, method))
                        originals[id(method)] = (target, method)
                continue
            wrapper = recorder.wrap(name, original)
            originals[id(original)] = (target, original)
            for module in _modules(_SCOPE.get(name, "repro")):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return {
        "absent": absent,
        "absent_spans": [
            name for name, targets in SPANS.items() if set(targets) <= set(absent)
        ],
        "bypassed": _find_bypasses(originals),
    }


def _find_bypasses(originals: dict[int, tuple[str, object]]) -> list[str]:
    """References to an original callable that still skip its wrapper:
    module globals, module-level containers, class attributes and
    default arguments anywhere in the package."""
    found: list[str] = []

    def check(value, where):
        entry = originals.get(id(value))
        if entry is not None and entry[1] is value:
            found.append(f"{entry[0]} via {where}")

    def check_function(fn, where):
        for default in (fn.__defaults__ or ()) + tuple(
            (fn.__kwdefaults__ or {}).values()
        ):
            check(default, f"{where} default")

    for module in _modules("repro"):
        for key, value in list(vars(module).items()):
            where = f"{module.__name__}.{key}"
            check(value, where)
            if isinstance(value, dict):
                for item in list(value.values()):
                    check(item, where + "[...]")
            elif isinstance(value, (list, tuple)):
                for item in value:
                    check(item, where + "[...]")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, item in list(vars(value).items()):
                    inner = getattr(item, "__func__", item)
                    check(inner, f"{where}.{attr}")
                    if _is_function(inner):
                        check_function(inner, f"{where}.{attr}")
            elif _is_function(value):
                check_function(value, where)
    return sorted(set(found))


def _is_function(value) -> bool:
    return hasattr(value, "__defaults__") and hasattr(value, "__code__")
