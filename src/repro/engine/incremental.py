"""Incremental (delta-aware) theta pricing across related evaluations.

The flows layer (:mod:`repro.flows.delta`) knows how to re-price a pod
fabric given *what changed*; this module supplies the memory of what
was priced before.  A :class:`PlanContext` holds the
:class:`~repro.flows.ThetaParts` of previous evaluations keyed by
matching, diffs the fabric condition (a :class:`~repro.flows.FabricState`)
and the demand rows against the stored ones, and routes the evaluation
through :func:`repro.flows.pod_theta_parts` so only dirty pods are
re-solved.  Re-solves go through the block solver's process-wide
subproblem memo, so a coarse star LP or pod subproblem seen before is
never solved again.

Three front doors:

* :func:`compute_theta_delta` — the delta-aware sibling of
  :func:`repro.flows.compute_theta`, publishing under the same
  :func:`~repro.flows.theta_tag`.
* :func:`prewarm_scenario_context` — prices every step of a scenario's
  collective through a context into a cache, so downstream step-cost
  evaluation (the planner, the workload policies) hits warm values.
* :func:`scenario_lineage` — the key under which a daemon parks one
  resident context per *family* of perturbed scenarios: same base
  fabric spec (uplink health stripped), rate, and theta method, so a
  streamed request that is a small perturbation of a seen fingerprint
  is priced from the delta path.

Only exact pricing (``theta_method="auto"``) of pod-structured fabrics
goes through a context; :func:`delta_priced` is that test.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from ..flows import (
    DeltaIndex,
    FabricState,
    ThetaParts,
    compute_theta,
    pod_structure,
    pod_theta,
    pod_theta_parts,
    theta_tag,
)
from ..flows.cache import ThroughputCache, default_cache
from ..flows.delta import _counters as _inc_counters
from ..matching import Matching
from ..topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner import Scenario
    from ..workload import Workload

__all__ = [
    "PlanContext",
    "compute_theta_delta",
    "delta_priced",
    "fabric_state_for",
    "scenario_lineage",
    "prewarm_scenario_context",
    "prewarm_workload_context",
]

class PlanContext:
    """Carrier of incremental pricing state across related evaluations.

    One entry per ``(matching, rate)``: the :class:`FabricState` it was
    priced under and the resulting :class:`ThetaParts`.  A repeated
    request with the same state answers without any work
    (``context_hits``); a request whose state differs delta-solves
    against the stored parts; a request for a *new* matching can name a
    ``hint`` matching (e.g. the same step index of the previous phase)
    whose parts seed a combined state+demand diff.

    Thread-safe: the daemon shares one context per scenario lineage
    across its worker threads.  ``last_matchings`` remembers the
    previous phase's step patterns so workload prewarms can hint
    step ``i`` of phase ``k`` against step ``i`` of phase ``k-1``.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._maxsize = int(maxsize)
        self._lock = threading.RLock()
        self._entries: OrderedDict[
            tuple[Matching, float],
            tuple[tuple, FabricState, Matching, ThetaParts],
        ] = OrderedDict()
        self.last_matchings: tuple[Matching, ...] = ()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.last_matchings = ()

    def price(
        self,
        topology: Topology,
        matching: Matching,
        reference_rate: float,
        state: FabricState,
        hint: Matching | None = None,
    ) -> float:
        """Exact theta of ``matching`` on ``topology``, priced
        incrementally against whatever this context has seen.

        ``topology`` must be the fabric *as described by* ``state``
        (base spec + uplink health + health overlay already applied) —
        the context never re-derives it, it only diffs states.  Flat
        topologies fall back to :func:`~repro.flows.pod_theta`'s flat
        LP untouched.
        """
        structure = pod_structure(topology)
        rate = float(reference_rate)
        if structure is None:
            return pod_theta(topology, matching, rate)
        key = (matching, rate)
        state_key = state.key()
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry[0] == state_key
                and entry[3].structure == structure
            ):
                self._entries.move_to_end(key)
                _inc_counters.bump("context_hits")
                return entry[3].theta
            index = DeltaIndex(structure)
            prev: ThetaParts | None = None
            delta = None
            if entry is not None:
                prev = entry[3]
                delta = index.diff_states(entry[1], state)
            elif hint is not None:
                hint_entry = self._entries.get((hint, rate))
                if hint_entry is not None:
                    prev = hint_entry[3]
                    delta = index.diff_states(hint_entry[1], state).merge(
                        index.diff_matchings(hint_entry[2], matching)
                    )
            parts = pod_theta_parts(
                topology, matching, rate, prev=prev, delta=delta
            )
            self._entries[key] = (state_key, state, matching, parts)
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
            return parts.theta


def fabric_state_for(scenario: "Scenario") -> FabricState:
    """The :class:`FabricState` a scenario's topology evaluates under.

    For ``podfabric`` specs the ``uplink_multipliers`` option is lifted
    out of the base key, so two scenarios differing only in uplink
    health (or health overlay) share a lineage and delta against each
    other; any other spec difference changes the base key and voids
    reuse.
    """
    spec = scenario.topology
    uplinks: tuple[float, ...] = ()
    if spec.family == "podfabric":
        options = dict(spec.options)
        raw = options.pop("uplink_multipliers", ())
        uplinks = tuple(float(m) for m in raw)
        base_key = (
            spec.family,
            spec.n,
            float(spec.bandwidth),
            tuple(sorted(options.items())),
        )
    else:
        base_key = spec
    return FabricState(
        base_key=base_key,
        health=scenario.health,
        uplink_multipliers=uplinks,
    )


def scenario_lineage(scenario: "Scenario") -> tuple:
    """The resident-context key for a scenario: base fabric identity
    (health and uplink perturbations stripped), rate, and theta method.

    Two requests with the same lineage are "the same fabric in a
    different condition" — exactly the pairs the delta path can price
    against each other.
    """
    state = fabric_state_for(scenario)
    return (
        state.base_key,
        float(scenario.cost.bandwidth),
        scenario.theta_method,
    )


def delta_priced(scenario: "Scenario") -> bool:
    """Whether ``scenario``'s theta goes through a :class:`PlanContext`:
    exact pricing (``theta_method="auto"``) on a pod-structured fabric."""
    return (
        scenario.theta_method == "auto"
        and pod_structure(scenario.build_topology()) is not None
    )


def compute_theta_delta(
    topology: Topology,
    matching: Matching,
    reference_rate: float | None = None,
    context: PlanContext | None = None,
    state: FabricState | None = None,
    hint: Matching | None = None,
    cache: ThroughputCache | None = default_cache,
) -> float:
    """Delta-aware exact theta — the incremental sibling of
    :func:`repro.flows.compute_theta`.

    With a ``context`` (and ideally the :class:`FabricState` that
    produced ``topology``), pricing reuses clean-pod parts from earlier
    calls; without one it is plain :func:`~repro.flows.compute_theta`.
    Values publish under the same :func:`~repro.flows.theta_tag`, so
    mixed delta/cold callers share entries.  When ``state`` is omitted
    the topology fingerprint stands in as the base key: repeats still
    hit, but every distinct fabric condition full-solves (no
    cross-condition deltas).
    """
    if reference_rate is None:
        reference_rate = topology.metadata.get("reference_rate")
        if reference_rate is None:
            from ..exceptions import FlowError

            raise FlowError(
                "reference_rate not given and topology metadata has none"
            )
    rate = float(reference_rate)
    if context is None:
        return compute_theta(topology, matching, reference_rate=rate, cache=cache)
    if state is None:
        state = FabricState(base_key=("fingerprint", topology.fingerprint()))

    def evaluate() -> float:
        return context.price(topology, matching, rate, state, hint=hint)

    if cache is None:
        return evaluate()
    return cache.get_or_compute(topology, matching, evaluate, tag=theta_tag(rate))


def prewarm_scenario_context(
    scenario: "Scenario",
    context: PlanContext,
    cache: ThroughputCache | None = default_cache,
) -> int:
    """Price every step of a scenario's collective through ``context``.

    Values land in ``cache`` under :func:`~repro.flows.theta_tag`, so
    the step-cost evaluation the planner runs next is pure lookups.
    Steps are hinted against the same step index of the previously
    prewarmed pattern sequence (``context.last_matchings``), which is
    what makes phase-over-phase demand drift delta-price.  No-ops
    (returns 0) unless the scenario is :func:`delta_priced`.
    """
    if not delta_priced(scenario):
        return 0
    topology = scenario.build_topology()
    state = fabric_state_for(scenario)
    rate = float(scenario.cost.bandwidth)
    step_matchings = scenario.collective.step_matchings(scenario.n)
    previous = context.last_matchings
    seeded = 0
    for i, matching in enumerate(step_matchings):
        if len(matching) == 0:
            continue
        hint = previous[i] if i < len(previous) else None

        def evaluate(m=matching, h=hint) -> float:
            return context.price(topology, m, rate, state, hint=h)

        if cache is None:
            evaluate()
        else:
            cache.get_or_compute(topology, matching, evaluate, tag=theta_tag(rate))
        seeded += 1
    context.last_matchings = step_matchings
    return seeded


def prewarm_workload_context(
    workload: "Workload",
    context: PlanContext,
    cache: ThroughputCache | None = default_cache,
) -> int:
    """Prewarm a whole workload phase-by-phase through one context.

    Phase k's steps delta-price against phase k-1's (same fabric
    lineage, drifted health/demand); :func:`repro.workload.plan_workload`
    runs this whenever it is given a context.  Returns the total number
    of step evaluations seeded.
    """
    return sum(
        prewarm_scenario_context(scenario, context, cache=cache)
        for scenario in workload.phases
    )
