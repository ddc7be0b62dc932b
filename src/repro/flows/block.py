"""Blockwise (hierarchical) maximum concurrent flow for pod fabrics.

The flat concurrent-flow LP is the repo's scale ceiling: its variable
count grows as ``commodities x edges``, so one n=1024 fabric prices in
minutes, not milliseconds.  This module breaks the ceiling for
*pod-structured* topologies (built by
:class:`repro.topology.PodFabric`, recognized via ``metadata["pods"]``)
by solving one small LP per pod plus one coarse inter-pod LP, following
the blockwise-decomposition pattern of large-scale ILP trackers (solve
blocks locally, stitch with boundary context).

Exactness
---------
For pods whose only shared node is a non-blocking core switch, the
decomposition is *exact*, not an approximation:

    theta(G, M)  =  min( min_p phi_p , phi_coarse )

where ``phi_p`` is the concurrent flow of the *pod subproblem* — the
pod's induced subgraph plus its core uplinks and the core node, with
the pod's intra-pod pairs as unit commodities and its inter-pod traffic
as aggregated *segment* commodities (source -> core per sender,
core -> destination per receiver) — and ``phi_coarse`` is the coarse
inter-pod concurrent flow over pod-to-pod aggregated demand on the
star of aggregated uplink capacities.

Why: restricting a flat optimum to one pod's edges yields a feasible
pod subproblem flow (flows transiting the core in and out again are
shortcut at the core), so ``theta <= phi_p`` for every pod, and
aggregation gives ``theta <= phi_coarse``.  Conversely the pod-local
optima scaled to the common minimum stitch at the core into a feasible
flat flow (every sender segment delivers to the core exactly what the
matching receiver segment carries away).  The differential suite
(``tests/differential/test_block_vs_flat.py``) pins this equality at
1e-9 against the flat LP, hypothesis-generated fabrics included.

Work avoided before any LP
--------------------------
* Every subproblem is **keyed by its content**: a pod by its size, its
  relabeled edge triples in canonical order, its commodity multiset and
  the rate; the coarse problem by the per-pod uplink capacity totals,
  the pod-to-pod demand and the rate.  Two process-wide compute-once
  memos hold each key's bounds sandwich and its exact value, so equal
  pods of one fabric share one computation, and a fabric condition that
  leaves a pod untouched (a fault in another pod) re-uses that pod's
  values with no state for callers to carry.
* The **coarse LP** runs first; its value is a valid upper bound and
  initializes the running minimum (a pod cut off from the core is
  detected here for the price of a k-node LP).  Pods whose exact value
  is already memoized then lower the running minimum before any
  screening.
* Every other pod gets the **bounds sandwich** — the same shortest-path
  lower / degree-proxy upper pair the engine's ``bounds`` backend
  exposes as ``theta_envelope`` — and pods are solved in
  ascending-lower-bound order: a pod whose *lower* bound already meets
  the running minimum cannot lower it and is skipped exactly; a
  zero-width envelope is decided without an LP.  A pod's subgraph
  :class:`~repro.topology.Topology` is built only on a memo miss.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields

from ..exceptions import FlowError
from ..matching import Matching
from ..memo import BoundedMemo, Counters
from ..topology.base import Fingerprint, Topology
from .bounds import theta_lower_bound_shortest_path, theta_proxy
from .concurrent_flow import (
    Commodity,
    commodities_from_matching,
    max_concurrent_flow,
)

__all__ = [
    "PodStructure",
    "pod_structure",
    "pod_theta",
    "changed_pods",
    "BlockStats",
    "block_stats",
    "reset_block_stats",
]

_MEMO_MAX = 4096


@dataclass(frozen=True)
class PodStructure:
    """Parsed pod layout of a flat topology.

    ``ranges`` is ``(start, size)`` per pod under contiguous global rank
    numbering; ``core`` is the relay-node label of the second-tier
    switch.
    """

    ranges: tuple[tuple[int, int], ...]
    core: object

    @property
    def n_pods(self) -> int:
        return len(self.ranges)


def pod_structure(topology: Topology) -> PodStructure | None:
    """The topology's pod layout, or ``None`` for flat fabrics.

    Reads ``metadata["pods"]`` (written by
    :meth:`repro.topology.PodFabric.flat_topology` and preserved by
    :meth:`repro.fabric.degradation.FabricHealth.apply`).
    """
    payload = topology.metadata.get("pods")
    if not isinstance(payload, dict):
        return None
    try:
        ranges = tuple((int(s), int(z)) for s, z in payload["ranges"])
        core = payload["core"]
    except (KeyError, TypeError, ValueError):
        raise FlowError(
            f"malformed pods metadata on topology {topology.name!r}: {payload!r}"
        )
    return PodStructure(ranges=ranges, core=core)


@dataclass(frozen=True)
class BlockStats:
    """Process-wide counters of the block solver's work avoidance.

    ``pod_solves`` counts pod (and coarse) LPs actually run;
    ``memo_hits`` counts subproblems whose exact value was served from
    the memo; ``pods_screened`` counts pods skipped because their
    envelope lower bound met the running minimum; ``envelope_decided``
    counts pods priced by a zero-width envelope; ``coarse_solves``
    counts coarse inter-pod problems evaluated; ``flat_fallbacks``
    counts :func:`pod_theta` calls on topologies with no pod structure.
    """

    pod_solves: int = 0
    memo_hits: int = 0
    pods_screened: int = 0
    envelope_decided: int = 0
    coarse_solves: int = 0
    flat_fallbacks: int = 0


_counters = Counters(*(f.name for f in fields(BlockStats)))


def block_stats() -> BlockStats:
    """Snapshot of the block solver's work-avoidance counters."""
    return BlockStats(**_counters.snapshot())


def reset_block_stats() -> None:
    """Zero the counters (test and benchmark isolation)."""
    _counters.reset()


#: Subproblem content key -> (lower, upper) bounds sandwich.
_bounds_memo: BoundedMemo[tuple[float, float]] = BoundedMemo(_MEMO_MAX)
#: Subproblem content key -> exact concurrent flow.
_exact_memo: BoundedMemo[float] = BoundedMemo(_MEMO_MAX)


def _clear_block_memos() -> None:
    """Drop the bounds and exact-value memos (test isolation hook)."""
    _bounds_memo.clear()
    _exact_memo.clear()


def _collect_pod_edges(
    topology: Topology, structure: PodStructure
) -> list[list[tuple[object, object, float]]]:
    """Per-pod relabeled edge lists (one O(E) pass over the fabric).

    Pod p's list holds its intra-pod edges (relabeled to local ranks
    ``0..size-1``) plus its uplinks to and from the core node.  An edge
    joining two pods directly (no core between) voids the decomposition
    and raises.
    """
    core = structure.core
    starts = [start for start, _ in structure.ranges]
    pod_edges: list[list[tuple[object, object, float]]] = [
        [] for _ in structure.ranges
    ]
    pod_of: dict[object, int] = {}
    for p, (start, size) in enumerate(structure.ranges):
        for r in range(start, start + size):
            pod_of[r] = p
    for u, v, capacity in topology.edges():
        if u == core:
            p = pod_of.get(v)
            if p is None:
                raise FlowError(f"edge ({u!r}, {v!r}) leaves the pod structure")
            pod_edges[p].append((core, v - starts[p], capacity))
        elif v == core:
            p = pod_of.get(u)
            if p is None:
                raise FlowError(f"edge ({u!r}, {v!r}) leaves the pod structure")
            pod_edges[p].append((u - starts[p], core, capacity))
        else:
            pu, pv = pod_of.get(u), pod_of.get(v)
            if pu is None or pv is None or pu != pv:
                raise FlowError(
                    f"edge ({u!r}, {v!r}) crosses pods without the core; "
                    "the block decomposition requires the core switch to be "
                    "the only inter-pod connector"
                )
            pod_edges[pu].append((u - starts[pu], v - starts[pu], capacity))
    return pod_edges


def _edge_key(edges: list[tuple[object, object, float]], core: object) -> tuple:
    """One pod's relabeled edge triples in canonical order (the core
    written as ``-1``, below every local rank)."""
    return tuple(
        sorted(
            (-1 if u == core else u, -1 if v == core else v, capacity)
            for u, v, capacity in edges
        )
    )


def _uplink_totals(
    topology: Topology, structure: PodStructure
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-pod aggregate uplink capacity ``(to the core, from the
    core)``, read off the core's own adjacency (no pass over the pod
    edges); ``0.0`` for a pod with no uplinks."""
    starts = [start for start, _ in structure.ranges]

    def per_pod(adjacency) -> tuple[float, ...]:
        total = [0.0] * structure.n_pods
        for rank, data in adjacency.get(structure.core, {}).items():
            total[bisect_right(starts, rank) - 1] += data["capacity"]
        return tuple(total)

    return per_pod(topology.graph.pred), per_pod(topology.graph.succ)


def changed_pods(before: Topology, after: Topology) -> tuple[int, ...]:
    """The pods whose edges differ between two conditions of one pod
    fabric (e.g. the live topology before and after a fault); ``()``
    when ``after`` has no pod structure.

    These are exactly the pods whose subproblems a re-price cannot
    serve from the memos; the coarse problem changes with them only
    when their uplink totals do.
    """
    structure = pod_structure(after)
    if structure is None:
        return ()
    core = structure.core
    old = _collect_pod_edges(before, structure)
    new = _collect_pod_edges(after, structure)
    return tuple(
        p
        for p in range(structure.n_pods)
        if _edge_key(old[p], core) != _edge_key(new[p], core)
    )


def _commodity_key(commodities: tuple[Commodity, ...]) -> tuple:
    """Order-insensitive canonical key of a commodity multiset."""
    return tuple(
        sorted((repr(c.src), repr(c.dst), float(c.demand)) for c in commodities)
    )


def _solve_subproblem(
    topology: Topology,
    commodities: tuple[Commodity, ...],
    reference_rate: float,
) -> float:
    """One pod (or coarse) LP; every LP the block solver runs goes
    through here and counts as a ``pod_solve``."""
    _counters.bump("pod_solves")
    return max_concurrent_flow(topology, commodities, reference_rate).theta


def _exact(key: Fingerprint, solve) -> float:
    """The memoized exact value of a subproblem, ``solve()`` running its
    LP on a miss.  The memo is compute-once, so threads pricing the same
    subproblem run one LP between them; every other lookup is a
    ``memo_hit``."""
    computed = False

    def compute() -> float:
        nonlocal computed
        computed = True
        return solve()

    value = _exact_memo.get_or_compute(key, compute)
    if not computed:
        _counters.bump("memo_hits")
    return value


def _coarse_theta(
    topology: Topology,
    structure: PodStructure,
    inter_demand: dict[tuple[int, int], float],
    reference_rate: float,
) -> float:
    """The coarse inter-pod concurrent flow over aggregated demand.

    Pods become the ranks of a star around the core; each pod's edge
    capacity is its *aggregate* uplink capacity read off the flat
    topology (so degraded uplinks are priced).  This is a relaxation of
    the flat problem — intra-pod detours through the core only free
    capacity — hence a valid upper bound, and exactly the boundary
    context the pod solutions stitch against.  :func:`pod_theta` calls
    it on a coarse memo miss only.
    """
    if not inter_demand:
        return float("inf")
    core = structure.core
    up, down = _uplink_totals(topology, structure)
    edges = [(p, core, c) for p, c in enumerate(up) if c > 0]
    edges += [(core, p, c) for p, c in enumerate(down) if c > 0]
    star = Topology(
        structure.n_pods, edges, name=f"{topology.name}|coarse"
    )
    commodities = tuple(
        Commodity(p, q, demand) for (p, q), demand in sorted(inter_demand.items())
    )
    return _solve_subproblem(star, commodities, reference_rate)


def _partition_matching(
    structure: PodStructure, matching: Matching
) -> tuple[
    list[list[Commodity]],
    list[dict[int, float]],
    list[dict[int, float]],
    dict[tuple[int, int], float],
]:
    """Split a matching into per-pod demand: ``(intra, seg_out, seg_in,
    inter_demand)``.

    ``intra[p]`` holds pod p's local unit commodities (local ranks),
    ``seg_out[p]`` / ``seg_in[p]`` the aggregated segment demand each
    local sender pushes to / receiver pulls from the core, and
    ``inter_demand`` the pod-to-pod aggregate the coarse LP prices.
    """
    starts = [start for start, _ in structure.ranges]

    def owner(rank: int) -> int:
        p = bisect_right(starts, rank) - 1
        if p < 0 or rank >= starts[p] + structure.ranges[p][1]:
            raise FlowError(
                f"rank {rank} of the matching is outside the pod ranges"
            )
        return p

    intra: list[list[Commodity]] = [[] for _ in structure.ranges]
    seg_out: list[dict[int, float]] = [{} for _ in structure.ranges]
    seg_in: list[dict[int, float]] = [{} for _ in structure.ranges]
    inter_demand: dict[tuple[int, int], float] = {}
    for src, dst in matching:
        ps, pd = owner(src), owner(dst)
        if ps == pd:
            intra[ps].append(
                Commodity(src - starts[ps], dst - starts[ps], 1.0)
            )
        else:
            local_src = src - starts[ps]
            local_dst = dst - starts[pd]
            seg_out[ps][local_src] = seg_out[ps].get(local_src, 0.0) + 1.0
            seg_in[pd][local_dst] = seg_in[pd].get(local_dst, 0.0) + 1.0
            inter_demand[(ps, pd)] = inter_demand.get((ps, pd), 0.0) + 1.0
    return intra, seg_out, seg_in, inter_demand


def _pod_commodities(
    core: object,
    intra: list[Commodity],
    seg_out: dict[int, float],
    seg_in: dict[int, float],
) -> tuple[Commodity, ...]:
    """One pod's subproblem commodities (intra pairs + core segments)."""
    return tuple(
        intra
        + [Commodity(s, core, d) for s, d in sorted(seg_out.items())]
        + [Commodity(core, s, d) for s, d in sorted(seg_in.items())]
    )


def pod_theta(
    topology: Topology,
    matching: Matching,
    reference_rate: float,
) -> float:
    """Exact ``theta(G, M)`` of a pod fabric via blockwise decomposition.

    Equals the flat LP to 1e-9 (see the module docstring for the
    argument and the differential suite for the pins) at a fraction of
    its cost: one coarse inter-pod LP plus at most one small LP per
    *distinct* pod subproblem, each memoized by its content, solved in
    ascending-lower-bound order so bounds-based screening skips pods
    that provably cannot set the minimum.

    Topologies without pod structure fall back to the flat exact LP.
    """
    structure = pod_structure(topology)
    if structure is None:
        _counters.bump("flat_fallbacks")
        return max_concurrent_flow(
            topology, commodities_from_matching(matching), reference_rate
        ).theta
    if len(matching) == 0:
        return float("inf")
    core = structure.core
    intra, seg_out, seg_in, inter_demand = _partition_matching(structure, matching)
    pod_edges = _collect_pod_edges(topology, structure)

    if inter_demand:
        _counters.bump("coarse_solves")
        coarse_key = Fingerprint(
            (
                "coarse",
                *_uplink_totals(topology, structure),
                tuple(sorted(inter_demand.items())),
                reference_rate,
            )
        )
        current = _exact(
            coarse_key,
            lambda: _coarse_theta(topology, structure, inter_demand, reference_rate),
        )
        if current == 0.0:
            # A pod with cross-pod demand is cut off from the core.
            return 0.0
    else:
        current = float("inf")

    subgraphs: dict[int, Topology] = {}

    def subgraph(p: int) -> Topology:
        # Built on a memo miss only, and once per call.
        if p not in subgraphs:
            subgraphs[p] = Topology(
                structure.ranges[p][1],
                pod_edges[p],
                name=f"{topology.name}|pod{p}",
            )
        return subgraphs[p]

    # Pods whose exact value is memoized lower the running minimum
    # first; the rest wait for screening.
    pending: list[tuple[Fingerprint, int, tuple[Commodity, ...]]] = []
    for p, (_, size) in enumerate(structure.ranges):
        commodities = _pod_commodities(core, intra[p], seg_out[p], seg_in[p])
        if not commodities:
            continue
        key = Fingerprint(
            (
                size,
                _edge_key(pod_edges[p], core),
                _commodity_key(commodities),
                reference_rate,
            )
        )
        value = _exact_memo.peek(key)
        if value is None:
            pending.append((key, p, commodities))
            continue
        _counters.bump("memo_hits")
        current = min(current, value)

    entries: list[tuple[float, float, Fingerprint, int, tuple[Commodity, ...]]] = []
    for key, p, commodities in pending:

        def bounds(p=p, commodities=commodities) -> tuple[float, float]:
            # The bounds backend's sandwich (theta_envelope edges) on
            # the subproblem: a certified lower and optimistic upper
            # bound; a zero lower bound means a disconnected commodity.
            lower = theta_lower_bound_shortest_path(
                subgraph(p), commodities, reference_rate
            )
            if lower == 0.0:
                return 0.0, 0.0
            return lower, theta_proxy(subgraph(p), commodities, reference_rate)

        lower, upper = _bounds_memo.get_or_compute(key, bounds)
        if lower == 0.0:
            return 0.0
        entries.append((lower, upper, key, p, commodities))
    entries.sort(key=lambda e: e[0])
    for lower, upper, key, p, commodities in entries:
        if lower >= current:
            # This pod's theta is certified >= the running minimum: it
            # cannot change the result. Exact skip, no tolerance needed.
            _counters.bump("pods_screened")
            continue
        if lower == upper:
            _counters.bump("envelope_decided")
            value = lower
        else:
            value = _exact(
                key,
                lambda p=p, commodities=commodities: _solve_subproblem(
                    subgraph(p), commodities, reference_rate
                ),
            )
        current = min(current, value)
    return current
