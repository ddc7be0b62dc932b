"""The engine's batch entry points.

One subsystem owns scenario evaluation: ``plan_many`` (analytic
planning), ``sim_many`` (sim-in-the-loop execution), ``workload_many``
(multi-phase workload execution), and ``plan_workload_many``
(multi-phase planning).  All four share

* the **two-tier throughput cache** — the in-process compute-once
  memo backed by the content-addressed on-disk store
  (:class:`~repro.engine.DiskStore`, ``REPRO_CACHE_DIR``), activated
  automatically for the default cache so repeated grid runs across
  processes pay zero LP solves after the first;
* one **serial loop** that runs the items in input order and fires
  the ``on_result`` hook after each.

A grid's theta values depend only on its step patterns, so a batch is
a handful of LP solves plus cache hits and the pure-python DP; more
cores help through separate processes sharing one ``REPRO_CACHE_DIR``.

The heavier layers (planner, sim, workload) are imported lazily inside
the functions: the engine orchestrates them, so importing it must not
drag them in (or create import cycles).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ..flows import ThroughputCache, default_cache
from .store import activate_disk_cache

__all__ = ["plan_many", "sim_many", "workload_many", "plan_workload_many"]


def _session_cache(cache: "ThroughputCache | None") -> "ThroughputCache | None":
    """Upgrade the default cache with the persistent disk tier.

    A no-op unless ``REPRO_CACHE_DIR`` is set *and* the caller is using
    the shared default cache — explicitly passed caches (the hermetic
    test pattern) are never mutated behind the caller's back.
    """
    if cache is default_cache:
        activate_disk_cache(cache=cache)
    return cache


def _theta_affinity(scenario):
    """A scenario's theta-reuse group: everything that determines its
    step *patterns* and their estimator — message size and cost scalars
    deliberately excluded (they never change theta)."""
    return (
        scenario.topology,
        scenario.collective.algorithm,
        scenario.collective.options,
        scenario.theta_method,
        scenario.path_rule,
        scenario.multiport_radix,
        # A degraded fabric has its own theta values: keep its cells
        # out of pristine cells' groups.
        None if scenario.health is None else scenario.health.fingerprint(),
    )


def _run_batch(
    run_one: Callable, items: Sequence, on_result: Callable | None
) -> list:
    """Run ``items`` one after another, in input order.

    ``on_result(index, result)`` is the incremental-delivery hook: it
    fires once per item as soon as that item's result exists — before
    later items run — so a long batch can be streamed (the
    :mod:`repro.service` daemon bridges it onto an asyncio queue).
    Exceptions it raises abort the batch; items an aborted batch never
    reached produce no callback.
    """
    results = []
    for index, item in enumerate(items):
        result = run_one(item)
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


def _prewarm_plan_batch(requests, cache) -> int:
    """Seed the cache with every closed-formable step theta of a batch.

    Grid scenarios overwhelmingly share topologies and step patterns;
    one vectorized pass per affinity group
    (:func:`repro.flows.prewarm_closed_forms`) prices them all before
    the per-step scalar lookups begin, so the planner's inner loop runs
    entirely on cache hits.  Each seeded value takes exactly the miss
    the step evaluation would have taken — same keys, same tags, same
    statistics.  Only pristine ``theta_method="auto"`` single-port
    scenarios on a closed-form family qualify: degraded fabrics have no
    closed form (their family metadata is dropped on purpose) and
    multiport steps are grouped differently.  Returns the number of
    seeded values.
    """
    from ..flows import prewarm_closed_forms
    from ..flows.batch import CLOSED_FORM_FAMILIES

    seeded = 0
    seen_groups: set = set()
    for request in requests:
        scenario = request.scenario
        if (
            scenario.theta_method != "auto"
            or scenario.multiport_radix is not None
            or scenario.health is not None
        ):
            continue
        group = _theta_affinity(scenario) + (scenario.cost.bandwidth,)
        if group in seen_groups:
            continue
        seen_groups.add(group)
        try:
            topology = scenario.build_topology()
            if topology.metadata.get("family") not in CLOSED_FORM_FAMILIES:
                # Nothing to seed: skip reading the step patterns.
                continue
            matchings = []
            seen_matchings: set = set()
            for matching in scenario.collective.step_matchings(scenario.n):
                if (
                    len(matching) == 0
                    or matching in seen_matchings
                    or not topology.supports(matching)
                ):
                    # The scalar path never prices these (empty steps
                    # are inf, unsupported ones 0.0, without a cache
                    # entry) — seeding them would skew statistics.
                    continue
                seen_matchings.add(matching)
                matchings.append(matching)
            if len(matchings) < 2:
                continue
            seeded += prewarm_closed_forms(
                topology,
                matchings,
                reference_rate=scenario.cost.bandwidth,
                cache=cache,
            )
        except Exception:
            # Malformed scenarios surface their real error through the
            # normal planning path, not the opportunistic prewarm.
            continue
    return seeded


def plan_many(
    scenarios: Iterable,
    solver: str = "dp",
    cache: "ThroughputCache | None" = default_cache,
    on_result=None,
    **options,
) -> list:
    """Plan a batch of scenarios.

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
        input order, as soon as that item's result exists — the
        incremental-delivery hook the service daemon uses to stream
        long batches.  An exception it raises aborts the batch.  Every
        batch entry point in this module accepts it.

    Returns
    -------
    list[PlanResult]
        One result per input, in input order.
    """
    from ..planner.registry import plan
    from ..planner.result import PlanRequest
    from ..planner.scenario import _freeze_options

    cache = _session_cache(cache)
    frozen = _freeze_options(options)
    requests = [
        item
        if isinstance(item, PlanRequest)
        else PlanRequest(scenario=item, solver=solver, options=frozen)
        for item in scenarios
    ]
    if cache is not None:
        _prewarm_plan_batch(requests, cache)
    return _run_batch(
        lambda request: plan(request, cache=cache), requests, on_result
    )


def sim_many(
    items: Iterable,
    solver: str = "dp",
    cache: "ThroughputCache | None" = default_cache,
    rate_method: str = "mcf",
    accounting: str = "paper",
    compute_overlap: bool = False,
    collect_utilization: bool = False,
    check_model: bool = True,
    on_result=None,
    observe_rates: bool = False,
    **options,
) -> list:
    """Simulate a batch of planned collectives.

    The simulation twin of :func:`plan_many`: bare
    :class:`~repro.planner.Scenario` items are planned with ``solver``
    / ``options`` first, prepared :class:`~repro.planner.PlanResult`
    items are executed as-is, and mixed batches are fine.
    ``rate_method`` / ``accounting`` / ``compute_overlap`` /
    ``collect_utilization`` / ``check_model`` / ``observe_rates`` are
    forwarded to :func:`~repro.sim.simulate_plan` for every item.
    """
    from ..planner.result import PlanResult
    from ..sim.executor import simulate_plan

    cache = _session_cache(cache)
    sim_kwargs = {
        "rate_method": rate_method,
        "accounting": accounting,
        "compute_overlap": compute_overlap,
        "collect_utilization": collect_utilization,
        "check_model": check_model,
        "observe_rates": observe_rates,
    }

    def run_one(item):
        if isinstance(item, PlanResult):
            return simulate_plan(item, cache=cache, **sim_kwargs)
        return simulate_plan(
            item, solver=solver, cache=cache, **sim_kwargs, **options
        )

    return _run_batch(run_one, list(items), on_result)


def workload_many(
    items: Iterable,
    policy: str = "replan",
    solver: str = "dp",
    cache: "ThroughputCache | None" = default_cache,
    rate_method: str = "mcf",
    reconfiguration_model=None,
    collect_utilization: bool = False,
    check_model: bool = True,
    on_result=None,
    observe_rates: bool = False,
    **options,
) -> list:
    """Plan and execute a batch of workloads.

    The workload twin of :func:`plan_many` / :func:`sim_many`: bare
    :class:`~repro.workload.Workload` items are planned with ``policy``
    / ``solver`` / ``reconfiguration_model`` first, prepared
    :class:`~repro.workload.WorkloadPlan` items are executed as-is, and
    mixed batches are fine.  All items share one theta cache; results
    come back in input order.
    """
    from ..sim.workload import simulate_workload
    from ..workload.result import WorkloadPlan

    cache = _session_cache(cache)
    sim_kwargs = {
        "rate_method": rate_method,
        "collect_utilization": collect_utilization,
        "check_model": check_model,
        "observe_rates": observe_rates,
    }

    def run_one(item):
        if isinstance(item, WorkloadPlan):
            return simulate_workload(item, cache=cache, **sim_kwargs)
        return simulate_workload(
            item,
            policy=policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **sim_kwargs,
            **options,
        )

    return _run_batch(run_one, list(items), on_result)


def plan_workload_many(
    items: Iterable,
    policy: str = "replan",
    solver: str = "dp",
    cache: "ThroughputCache | None" = default_cache,
    reconfiguration_model=None,
    on_result=None,
    **options,
) -> list:
    """Plan a batch of workloads (no execution).

    Each item is a :class:`~repro.workload.Workload` planned with the
    shared ``policy`` / ``options``, or a ``(workload, policy)`` /
    ``(workload, policy, options_dict)`` tuple carrying its own — the
    traces x policies experiment grid batches heterogeneous cells this
    way.  Returns one :class:`~repro.workload.WorkloadPlan` per item,
    in input order.
    """
    from ..workload.policies import plan_workload
    from ..workload.spec import Workload

    cache = _session_cache(cache)

    def normalize(item):
        if isinstance(item, Workload):
            return item, policy, dict(options)
        workload, item_policy, *rest = item
        item_options = dict(rest[0]) if rest else dict(options)
        return workload, str(item_policy), item_options

    jobs = [normalize(item) for item in list(items)]

    def run_one(job):
        workload, job_policy, job_options = job
        return plan_workload(
            workload,
            policy=job_policy,
            solver=solver,
            reconfiguration_model=reconfiguration_model,
            cache=cache,
            **job_options,
        )

    return _run_batch(run_one, jobs, on_result)
