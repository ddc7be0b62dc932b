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

Cheap screens before any LP
---------------------------
* The **coarse LP** runs first; its value is a valid upper bound and
  initializes the running minimum (a pod cut off from the core is
  detected here for the price of a k-node LP).
* Each pod gets the **bounds sandwich** — the same shortest-path lower
  / degree-proxy upper pair the engine's ``bounds`` backend exposes as
  ``theta_envelope`` — and pods are solved in ascending-lower-bound
  order: a pod whose *lower* bound already meets the running minimum
  cannot lower it and is skipped exactly; a zero-width envelope is
  decided without an LP.
* Pod subproblems are **deduplicated** process-wide by (subgraph
  fingerprint, commodity multiset, rate): on a uniform pattern all
  equal pods collapse to one LP, which is what makes n=1024 (16x64)
  price in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..exceptions import FlowError
from ..matching import Matching
from ..memo import BoundedMemo, Counters
from ..topology.base import Topology
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
    "BlockStats",
    "block_stats",
    "reset_block_stats",
]

_SOLUTION_MEMO_MAX = 4096
_SUBGRAPH_MEMO_MAX = 32


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
    ``memo_hits`` counts subproblems served from the dedup memo;
    ``pods_screened`` counts pods skipped because their envelope lower
    bound met the running minimum; ``envelope_decided`` counts pods
    priced by a zero-width envelope; ``coarse_solves`` counts coarse
    inter-pod problems evaluated; ``flat_fallbacks`` counts
    :func:`pod_theta` calls on topologies with no pod structure.
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


_subgraph_memo: BoundedMemo[tuple[Topology, ...]] = BoundedMemo(_SUBGRAPH_MEMO_MAX)
_solution_memo: BoundedMemo[float] = BoundedMemo(_SOLUTION_MEMO_MAX)


def _clear_block_memos() -> None:
    """Drop subgraph and subproblem memos (test isolation hook)."""
    _subgraph_memo.clear()
    _solution_memo.clear()


def _collect_pod_edges(
    topology: Topology, structure: PodStructure
) -> list[list[tuple[object, object, float]]]:
    """Per-pod relabeled edge lists (one O(E) pass over the fabric).

    An edge joining two pods directly (no core between) voids the
    decomposition and raises.
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


def _pod_subgraphs(
    topology: Topology, structure: PodStructure
) -> tuple[Topology, ...]:
    """One relabeled subproblem topology per pod, memoized per fabric.

    Pod p's subgraph keeps its intra-pod edges (relabeled to local
    ranks ``0..size-1``) plus its uplinks to the core node.  Equal pods
    produce fingerprint-identical subgraphs, which is what the
    subproblem dedup keys on.
    """

    def build() -> tuple[Topology, ...]:
        pod_edges = _collect_pod_edges(topology, structure)
        return tuple(
            Topology(
                size,
                pod_edges[p],
                name=f"{topology.name}|pod{p}",
            )
            for p, (_, size) in enumerate(structure.ranges)
        )

    return _subgraph_memo.get_or_compute((topology.fingerprint(), structure), build)


def _pod_subgraphs_subset(
    topology: Topology, structure: PodStructure, pods: set[int]
) -> dict[int, Topology]:
    """Subgraphs for the given pods only, skipping the fabric fingerprint.

    The delta path (:mod:`repro.flows.delta`) rebuilds only dirty pods;
    fingerprinting an n=1024 fabric just to memoize a one-pod rebuild
    would cost more than the rebuild itself.
    """
    pod_edges = _collect_pod_edges(topology, structure)
    return {
        p: Topology(
            structure.ranges[p][1],
            pod_edges[p],
            name=f"{topology.name}|pod{p}",
        )
        for p in pods
    }


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
    """One pod (or coarse) LP, deduplicated process-wide.

    The memo key is (subgraph fingerprint, commodity multiset, rate):
    on uniform patterns every equal pod collapses onto one solve, and
    repeated collective steps reuse values across calls.  The memo is
    compute-once, so threads pricing the same pod run one LP between
    them.
    """
    solved = False

    def solve() -> float:
        nonlocal solved
        value = max_concurrent_flow(topology, commodities, reference_rate).theta
        solved = True
        return value

    key = (topology.fingerprint(), _commodity_key(commodities), reference_rate)
    value = _solution_memo.get_or_compute(key, solve)
    _counters.bump("pod_solves" if solved else "memo_hits")
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
    context the pod solutions stitch against.
    """
    if not inter_demand:
        return float("inf")
    core = structure.core
    up: dict[int, float] = {}
    down: dict[int, float] = {}
    pod_of: dict[object, int] = {}
    for p, (start, size) in enumerate(structure.ranges):
        for r in range(start, start + size):
            pod_of[r] = p
    for u, v, capacity in topology.edges():
        if v == core:
            up[pod_of[u]] = up.get(pod_of[u], 0.0) + capacity
        elif u == core:
            down[pod_of[v]] = down.get(pod_of[v], 0.0) + capacity
    edges = [(p, core, c) for p, c in sorted(up.items())]
    edges += [(core, p, c) for p, c in sorted(down.items())]
    star = Topology(
        structure.n_pods, edges, name=f"{topology.name}|coarse"
    )
    commodities = tuple(
        Commodity(p, q, demand) for (p, q), demand in sorted(inter_demand.items())
    )
    _counters.bump("coarse_solves")
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
    The delta layer diffs these per-pod signatures to decide which pods
    a pattern change actually touched.
    """
    starts = [start for start, _ in structure.ranges]

    def owner(rank: int) -> int:
        for p, (start, size) in enumerate(structure.ranges):
            if start <= rank < start + size:
                return p
        raise FlowError(
            f"rank {rank} of the matching is outside the pod ranges"
        )

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
    *distinct* pod subproblem, solved in ascending-lower-bound order
    so bounds-based screening skips pods that provably cannot set the
    minimum.

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
    partition = _partition_matching(structure, matching)
    return _cold_parts(topology, structure, *partition, reference_rate).theta


@dataclass(frozen=True)
class PodPart:
    """One pod's contribution to a theta evaluation.

    ``exact`` parts hold the pod subproblem optimum ``phi_p``;
    non-exact parts hold a *certified lower bound* on ``phi_p`` (the
    pod was screened: its bound met the running minimum, so the exact
    value provably cannot change theta).  The invariant ``value <=
    phi_p`` for non-exact parts is what lets later deltas re-screen a
    clean pod without ever touching it.
    """

    value: float
    exact: bool


@dataclass(frozen=True)
class ThetaParts:
    """A theta evaluation with its blockwise decomposition retained.

    ``pods[p]`` is ``None`` when pod p had no commodities (its
    ``phi_p`` is ``inf``); ``coarse`` is the exact coarse inter-pod
    value (``inf`` with no inter-pod demand).
    """

    theta: float
    coarse: float
    pods: tuple[PodPart | None, ...]
    structure: PodStructure
    reference_rate: float


def _coarse_zero_parts(
    structure: PodStructure, reference_rate: float
) -> ThetaParts:
    """Finalize a coarse-zero evaluation (a pod with cross-pod demand
    is cut off from the core, so theta is exactly 0).

    Pod subproblems are never built (a severed pod's subgraph has no
    core node to route through), so no per-pod parts are recorded —
    later deltas against this result conservatively re-solve every pod
    they need.
    """
    return ThetaParts(
        theta=0.0,
        coarse=0.0,
        pods=(None,) * structure.n_pods,
        structure=structure,
        reference_rate=reference_rate,
    )


def _zero_parts(
    parts: list[PodPart | None],
    zero_pod: int,
    pending_pods: list[int],
    coarse: float,
    structure: PodStructure,
    reference_rate: float,
) -> ThetaParts:
    """Finalize a zero-theta evaluation (a pod commodity is disconnected).

    The zero pod is exact; every other undecided pod keeps the trivial
    certified bound 0.0 (``phi_p >= 0`` always holds).
    """
    parts[zero_pod] = PodPart(0.0, exact=True)
    for p in pending_pods:
        if parts[p] is None and p != zero_pod:
            parts[p] = PodPart(0.0, exact=False)
    return ThetaParts(
        theta=0.0,
        coarse=coarse,
        pods=tuple(parts),
        structure=structure,
        reference_rate=reference_rate,
    )


def _cold_parts(
    topology: Topology,
    structure: PodStructure,
    intra,
    seg_out,
    seg_in,
    inter_demand,
    reference_rate: float,
) -> ThetaParts:
    """Cold blockwise theta of a partitioned matching, parts recorded."""
    core = structure.core
    subgraphs = _pod_subgraphs(topology, structure)
    coarse = _coarse_theta(topology, structure, inter_demand, reference_rate)
    if coarse == 0.0:
        return _coarse_zero_parts(structure, reference_rate)
    current = coarse
    parts: list[PodPart | None] = [None] * structure.n_pods
    pod_commodities = [
        _pod_commodities(core, intra[p], seg_out[p], seg_in[p])
        for p in range(structure.n_pods)
    ]
    busy = [p for p, commodities in enumerate(pod_commodities) if commodities]
    entries: list[tuple[float, float, int, Topology, tuple[Commodity, ...]]] = []
    for p in busy:
        subgraph, commodities = subgraphs[p], pod_commodities[p]
        # The bounds backend's sandwich (theta_envelope edges) on the
        # subproblem: a certified lower and optimistic upper bound.
        lower = theta_lower_bound_shortest_path(
            subgraph, commodities, reference_rate
        )
        if lower == 0.0:
            # Some commodity is disconnected inside the pod.
            return _zero_parts(parts, p, busy, coarse, structure, reference_rate)
        upper = theta_proxy(subgraph, commodities, reference_rate)
        entries.append((lower, upper, p, subgraph, commodities))
    entries.sort(key=lambda e: e[0])
    for lower, upper, p, subgraph, commodities in entries:
        if lower >= current:
            # This pod's theta is certified >= the running minimum: it
            # cannot change the result. Exact skip, no tolerance needed.
            _counters.bump("pods_screened")
            parts[p] = PodPart(lower, exact=False)
            continue
        if lower == upper:
            _counters.bump("envelope_decided")
            value = lower
        else:
            value = _solve_subproblem(subgraph, commodities, reference_rate)
        parts[p] = PodPart(value, exact=True)
        if value < current:
            current = value
    return ThetaParts(
        theta=current,
        coarse=coarse,
        pods=tuple(parts),
        structure=structure,
        reference_rate=reference_rate,
    )
