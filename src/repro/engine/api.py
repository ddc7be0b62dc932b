"""The engine's batch entry point: ``plan_many``.

A batch is one serial loop of :func:`repro.planner.plan` over the
**two-tier throughput cache** — the in-process compute-once memo backed
by the content-addressed on-disk store
(:class:`~repro.engine.DiskStore`, ``REPRO_CACHE_DIR``), activated
automatically for the default cache so repeated grid runs across
processes pay zero LP solves after the first.  A grid's theta values
depend only on its step patterns, so a batch is a handful of LP solves
plus cache hits and the pure-python DP; more cores help through
separate processes sharing one ``REPRO_CACHE_DIR``.  Simulations and
workloads batch as plain loops of :func:`~repro.sim.simulate_plan`,
:func:`~repro.sim.simulate_workload` and
:func:`~repro.workload.plan_workload` over one cache.

The planner is imported lazily inside the function: the engine
orchestrates it, so importing the engine must not drag it in (or
create import cycles).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..flows import ThroughputCache, default_cache
from .store import activate_disk_cache

__all__ = ["plan_many"]


def plan_many(
    scenarios: Iterable,
    solver: str = "dp",
    cache: "ThroughputCache | None" = default_cache,
    on_result=None,
    **options,
) -> list:
    """Plan a batch of scenarios, one after another, in input order.

    Parameters
    ----------
    scenarios:
        :class:`~repro.planner.Scenario` items (planned with ``solver``
        / ``options``) and/or prepared :class:`~repro.planner.PlanRequest`
        items (which carry their own solver choice — mixed batches are
        fine).
    solver:
        Solver name applied to bare scenarios.
    cache:
        Shared theta memo.  The default module-level cache is shared
        with everything else in the process (and gains the persistent
        disk tier when ``REPRO_CACHE_DIR`` is set); pass a fresh
        :class:`~repro.flows.ThroughputCache` to isolate a batch, or
        ``None`` to disable caching.
    on_result:
        Optional ``(index, result)`` callback fired once per item, in
        input order, as soon as that item's result exists — before
        later items run — the incremental-delivery hook the service
        daemon uses to stream long batches.  An exception it raises
        aborts the batch; items an aborted batch never reached produce
        no callback.

    Returns
    -------
    list[PlanResult]
        One result per input, in input order.
    """
    from ..planner.registry import plan
    from ..planner.result import PlanRequest
    from ..planner.scenario import _freeze_options

    if cache is default_cache:
        activate_disk_cache(cache=cache)
    frozen = _freeze_options(options)
    requests = [
        item
        if isinstance(item, PlanRequest)
        else PlanRequest(scenario=item, solver=solver, options=frozen)
        for item in scenarios
    ]
    results = []
    for index, request in enumerate(requests):
        result = plan(request, cache=cache)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results
