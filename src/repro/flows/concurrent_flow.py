"""Exact maximum concurrent flow by path column generation (paper §3.2).

The paper defines ``theta(G, M_i)`` as the largest fraction of the
(unit-demand) permutation matrix ``M_i`` that can be routed concurrently
on ``G`` without exceeding any link capacity (Shahrokhi & Matula's
maximum concurrent flow).  Over paths it reads

    maximize    phi
    subject to  sum_{p in P_k} x_p >= phi * w_k   for every commodity k,
                sum_{p through e} x_p <= c(e)     for every edge e,
                x_p >= 0,

where ``P_k`` holds the source-destination paths of commodity ``k``.
Capacities are normalized by a *reference rate* (one transceiver
bandwidth ``b``) so that ``theta == 1`` means "every pair enjoys a
dedicated full-rate circuit" — the matched-topology ideal.

:func:`max_concurrent_flow` never enumerates ``P_k``.  It solves a
*restricted master* LP over a few paths per commodity with scipy's HiGHS
backend and prices new ones by shortest paths under the master's
capacity duals, the length-function view of concurrent flow (Garg &
Könemann, FOCS 1998).  Any nonnegative edge length ``l`` bounds theta
from above,

    theta  <=  sum_e c(e) l(e)  /  sum_k w_k dist_l(s_k, t_k),

and any capacity-feasible path flow bounds it from below, so every
result carries a :class:`ThetaCertificate` — the path flows and the
best length function seen — that :func:`verify_certificate` rechecks
with numpy alone.  The loop stops when no path undercuts its
commodity's demand dual or the two bounds meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import dijkstra

from ..exceptions import FlowError
from ..matching import Matching
from ..topology.base import Topology

__all__ = [
    "Commodity",
    "ConcurrentFlowResult",
    "ThetaCertificate",
    "max_concurrent_flow",
    "verify_certificate",
    "commodities_from_matching",
    "commodities_from_matrix",
]


@dataclass(frozen=True)
class Commodity:
    """A single source-destination demand.

    ``demand`` is expressed in reference-rate units: a full permutation
    step uses demand 1.0 per pair.
    """

    src: object
    dst: object
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise FlowError(f"commodity with src == dst == {self.src!r}")
        if not self.demand > 0:
            raise FlowError(f"commodity demand must be positive, got {self.demand}")


@dataclass(frozen=True)
class ThetaCertificate:
    """Solver-free evidence that theta lies in ``[theta_lo, theta_hi]``.

    Attributes
    ----------
    theta_lo:
        The concurrent flow the path flows achieve.
    theta_hi:
        ``sum_e c(e) l(e) / sum_k w_k dist_l(s_k, t_k)`` for the length
        function ``l`` below, an upper bound on any feasible theta.
    paths:
        Per commodity (in the order solved), ``(nodes, flow)`` pairs:
        each path as its node sequence from source to destination, with
        flows that respect every capacity and ship ``theta_lo * w_k``.
    edges, lengths:
        The length function: a nonnegative length per ``(u, v)`` edge,
        in reference-rate units.
    """

    theta_lo: float
    theta_hi: float
    paths: tuple[tuple[tuple[tuple[object, ...], float], ...], ...]
    edges: tuple[tuple[object, object], ...]
    lengths: tuple[float, ...]


@dataclass(frozen=True)
class ConcurrentFlowResult:
    """Outcome of a maximum-concurrent-flow computation.

    Attributes
    ----------
    theta:
        The maximum concurrent flow value.  ``0.0`` means at least one
        commodity is disconnected; ``inf`` means there were no
        commodities to route.
    edge_flows:
        Optional per-commodity edge flows at the optimum, as a tuple of
        ``{(u, v): flow}`` mappings aligned with the commodity order
        (flows are for *one unit* of theta-scaled demand, i.e. they ship
        ``theta * w_k``).  ``None`` unless ``return_flows=True``.
    certificate:
        The :class:`ThetaCertificate` behind a finite, nonzero theta;
        ``None`` for the trivial screens (no commodities, a
        disconnected commodity).
    """

    theta: float
    edge_flows: tuple[dict[tuple[object, object], float], ...] | None = None
    certificate: ThetaCertificate | None = None


def commodities_from_matching(matching: Matching) -> tuple[Commodity, ...]:
    """Unit-demand commodities for each pair of a matching."""
    return tuple(Commodity(src, dst, 1.0) for src, dst in matching)


def commodities_from_matrix(
    matrix: np.ndarray, reference_volume: float | None = None
) -> tuple[Commodity, ...]:
    """Commodities from a demand matrix.

    Each nonzero off-diagonal entry becomes a commodity.  Demands are
    divided by ``reference_volume`` (default: the maximum entry) so the
    heaviest pair has demand 1.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise FlowError(f"demand matrix must be square, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise FlowError("demand matrix entries must be non-negative")
    if reference_volume is None:
        reference_volume = float(matrix.max())
        if reference_volume <= 0:
            return ()
    commodities = []
    n = matrix.shape[0]
    for src in range(n):
        for dst in range(n):
            if src != dst and matrix[src, dst] > 0:
                commodities.append(
                    Commodity(src, dst, float(matrix[src, dst]) / reference_volume)
                )
    return tuple(commodities)


#: Column generation stops once ``theta_hi - theta_lo`` is within this
#: fraction of ``theta_lo`` (the differential suite pins 1e-9).
_CERTIFIED_GAP = 1e-10
#: A path enters the master only when it undercuts its commodity's
#: demand dual by more than this fraction; smaller gaps are round-off.
_PRICING_MARGIN = 1e-12


class _PathMaster:
    """Restricted master LP over paths for one concurrent-flow instance.

    Nodes are indexed in ``topology.nodes`` order and edges in
    ``topology.edges()`` order; a column is ``(commodity, edge-index
    path)``.  Shortest paths run on a CSR copy of the graph whose data
    slots follow ``self.order``, so a length vector over edges maps onto
    it without rebuilding the structure.
    """

    def __init__(
        self,
        topology: Topology,
        commodities: Sequence[Commodity],
        reference_rate: float,
    ) -> None:
        self.node_list = list(topology.nodes)
        index = {node: i for i, node in enumerate(self.node_list)}
        triples = list(topology.edges())
        self.edges = tuple((u, v) for u, v, _ in triples)
        self.tails = np.array([index[u] for u, _, _ in triples], dtype=np.int64)
        self.heads = np.array([index[v] for _, v, _ in triples], dtype=np.int64)
        self.capacity = np.array([c for _, _, c in triples], dtype=float)
        self.capacity /= reference_rate
        self.n_nodes = len(self.node_list)
        self.n_edges = len(triples)
        self.order = np.lexsort((self.heads, self.tails))
        hops = zip(self.tails.tolist(), self.heads.tolist())
        self.edge_of = {hop: e for e, hop in enumerate(hops)}
        self.graph = sparse.csr_matrix(
            (
                np.ones(self.n_edges),
                self.heads[self.order],
                np.concatenate(
                    [[0], np.cumsum(np.bincount(self.tails, minlength=self.n_nodes))]
                ),
            ),
            shape=(self.n_nodes, self.n_nodes),
        )

        self.src = np.array([index[c.src] for c in commodities], dtype=np.int64)
        self.dst = np.array([index[c.dst] for c in commodities], dtype=np.int64)
        self.demand = np.array([c.demand for c in commodities], dtype=float)
        self.n_comm = len(commodities)
        self.sources, self.row_of = np.unique(self.src, return_inverse=True)

        self.col_comm: list[int] = []
        self.col_path: list[tuple[int, ...]] = []
        self._known: set[tuple[int, tuple[int, ...]]] = set()

    # -- shortest paths ------------------------------------------------------

    def _graph(self, lengths: np.ndarray) -> sparse.csr_matrix:
        # One CSR structure per master; each search only rewrites its
        # data.  Explicit zero lengths stay edges: csgraph keeps stored
        # zeros.
        self.graph.data = lengths[self.order]
        return self.graph

    def _shortest(
        self, lengths: np.ndarray, sources: np.ndarray | int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances and predecessors from ``sources`` (default: every
        distinct commodity source)."""
        return dijkstra(
            self._graph(lengths),
            directed=True,
            indices=self.sources if sources is None else sources,
            return_predecessors=True,
        )

    def _trace(self, pred: np.ndarray, k: int) -> tuple[int, ...]:
        """Commodity ``k``'s path as edge indices, walking back from its
        destination through ``pred``, the predecessors from its source."""
        node, src, pred = int(self.dst[k]), int(self.src[k]), pred.tolist()
        path = []
        while node != src:
            parent = pred[node]
            path.append(self.edge_of[parent, node])
            node = parent
        return tuple(reversed(path))

    def _add(self, k: int, path: tuple[int, ...]) -> bool:
        if (k, path) in self._known:
            return False
        self._known.add((k, path))
        self.col_comm.append(k)
        self.col_path.append(path)
        return True

    def seed(self) -> np.ndarray:
        """Seed every commodity with edge-disjoint paths: its
        hop-shortest path, then repeatedly the shortest path once every
        edge of its earlier seeds costs ``n_nodes`` extra hops, until
        the next one has to reuse such an edge.  On a ring that is both
        directions; on a switched fabric one path per switch port.
        The seeds ignore capacities.  Returns the hop distances."""
        dist, pred = self._shortest(np.ones(self.n_edges))
        # Each seed leaves the source by one edge and enters the
        # destination by one, so the degrees cap the disjoint seeds.
        cap = np.minimum(
            np.bincount(self.tails, minlength=self.n_nodes)[self.src],
            np.bincount(self.heads, minlength=self.n_nodes)[self.dst],
        ).tolist()
        for k in range(self.n_comm):
            path = self._trace(pred[self.row_of[k]], k)
            self._add(k, path)
            lengths = np.ones(self.n_edges)
            for _ in range(cap[k] - 1):
                lengths[list(path)] += self.n_nodes
                reached, detour = self._shortest(lengths, self.src[k])
                # A path through an earlier seed's edge costs n_nodes or more.
                if reached[self.dst[k]] >= self.n_nodes:
                    break
                path = self._trace(detour, k)
                self._add(k, path)
        return dist[self.row_of, self.dst]

    # -- the master LP -------------------------------------------------------

    def solve(self) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Solve the master: ``(theta_lo, path flows, demand duals,
        capacity duals)``.  ``theta_lo`` is what the path flows achieve
        once scaled into capacity, not HiGHS's objective."""
        n_comm, n_cols = self.n_comm, len(self.col_path)
        comm = np.array(self.col_comm, dtype=np.int64)
        hops = np.fromiter(map(len, self.col_path), dtype=np.int64, count=n_cols)
        on_edge = np.fromiter(
            chain.from_iterable(self.col_path), dtype=np.int64, count=int(hops.sum())
        )
        cols = np.arange(1, n_cols + 1)
        # Variables [phi, x_1..x_P]; rows: w_k phi - sum x_p <= 0 per
        # commodity, then sum x_p <= c(e) per edge.
        a_ub = sparse.csc_matrix(
            (
                np.concatenate([self.demand, -np.ones(n_cols), np.ones(len(on_edge))]),
                (
                    np.concatenate([np.arange(n_comm), comm, n_comm + on_edge]),
                    np.concatenate(
                        [np.zeros(n_comm, dtype=np.int64), cols, np.repeat(cols, hops)]
                    ),
                ),
            ),
            shape=(n_comm + self.n_edges, n_cols + 1),
        )
        objective = np.zeros(n_cols + 1)
        objective[0] = -1.0
        result = linprog(
            objective,
            A_ub=a_ub,
            b_ub=np.concatenate([np.zeros(n_comm), self.capacity]),
            bounds=(0, None),
            method="highs",
        )
        if result.status != 0:
            raise FlowError(f"concurrent-flow master LP failed: {result.message}")
        flows = np.maximum(result.x[1:], 0.0)
        shipped = np.bincount(comm, flows, minlength=n_comm)
        load = np.bincount(on_edge, np.repeat(flows, hops), minlength=self.n_edges)
        overload = max(1.0, float(np.max(load / self.capacity)))
        theta_lo = float(np.min(shipped / self.demand)) / overload
        marginals = -result.ineqlin.marginals
        return (
            theta_lo,
            flows,
            marginals[:n_comm],
            np.maximum(marginals[n_comm:], 0.0),
        )

    # -- bounds ----------------------------------------------------------------

    def upper_bound(self, lengths: np.ndarray, dist: np.ndarray) -> float:
        """``sum c l / sum w dist_l``: theta's upper bound under ``lengths``."""
        denominator = float(self.demand @ dist)
        if denominator <= 0:
            return float("inf")
        return float(self.capacity @ lengths) / denominator

    def port_lengths(self) -> np.ndarray:
        """Unit length on the edges out of (or into) the node whose
        egress (ingress) capacity per unit of demand is tightest: the
        port bound as a length function."""
        best, best_lengths = float("inf"), None
        for ends, endpoints in ((self.tails, self.src), (self.heads, self.dst)):
            demand = np.bincount(endpoints, self.demand, self.n_nodes)
            capacity = np.bincount(ends, self.capacity, self.n_nodes)
            busy = np.flatnonzero(demand > 0)
            ratios = capacity[busy] / demand[busy]
            if ratios.min() < best:
                best = float(ratios.min())
                best_lengths = (ends == busy[np.argmin(ratios)]).astype(float)
        return best_lengths

    def run(self, hops: np.ndarray) -> tuple[float, np.ndarray, float, np.ndarray]:
        """Column generation from the current columns, given the hop
        distances :meth:`seed` returned: ``(theta_lo, path flows,
        theta_hi, lengths)``.

        ``theta_hi`` is the best upper bound seen: unit lengths (the
        flow-hop bound), the port bound, or any master's duals.  The port
        bound is what closes a switched fabric whose optimum saturates a
        port, where the master's duals alone stay degenerate.
        """
        best_lengths = np.ones(self.n_edges)
        best_hi = self.upper_bound(best_lengths, hops)
        port = self.port_lengths()
        port_dist, _ = self._shortest(port)
        port_hi = self.upper_bound(port, port_dist[self.row_of, self.dst])
        if port_hi < best_hi:
            best_hi, best_lengths = port_hi, port
        while True:
            theta_lo, flows, sigma, lengths = self.solve()
            dist, pred = self._shortest(lengths)
            reached = dist[self.row_of, self.dst]
            dual_hi = self.upper_bound(lengths, reached)
            if dual_hi < best_hi:
                best_hi, best_lengths = dual_hi, lengths
            if best_hi - theta_lo <= _CERTIFIED_GAP * theta_lo:
                break
            priced = np.flatnonzero(reached < sigma * (1.0 - _PRICING_MARGIN))
            added = [
                self._add(k, self._trace(pred[self.row_of[k]], k))
                for k in priced.tolist()
            ]
            if not any(added):
                break
        return theta_lo, flows, best_hi, best_lengths

    # -- outputs ---------------------------------------------------------------

    def routes(
        self, theta: float, flows: np.ndarray
    ) -> list[list[tuple[tuple[int, ...], float]]]:
        """Per commodity, ``(edge path, flow)`` pairs scaled to ship
        exactly ``theta * w_k`` (a scale of at most one, so capacities
        still hold)."""
        comm = np.array(self.col_comm, dtype=np.int64)
        shipped = np.bincount(comm, flows, minlength=self.n_comm)
        scale = (theta * self.demand / shipped)[comm] * flows
        routes: list[list[tuple[tuple[int, ...], float]]] = [
            [] for _ in range(self.n_comm)
        ]
        for k, path, flow in zip(self.col_comm, self.col_path, scale.tolist()):
            if flow > 0:
                routes[k].append((path, flow))
        return routes

    def node_path(self, k: int, path: tuple[int, ...]) -> tuple[object, ...]:
        names, heads = self.node_list, self.heads[list(path)].tolist()
        return (names[self.src[k]], *(names[h] for h in heads))


def max_concurrent_flow(
    topology: Topology,
    commodities: Sequence[Commodity],
    reference_rate: float,
    return_flows: bool = False,
) -> ConcurrentFlowResult:
    """Solve the maximum concurrent flow exactly, with a certificate.

    Path column generation (see the module docstring): edge-disjoint
    seed paths per commodity, then shortest-path pricing under the
    master LP's capacity duals until no path prices out or the
    certified interval closes.  On a bidirectional ring the seeds are
    both directions, every simple path, so one master solve suffices.

    Parameters
    ----------
    topology:
        The capacitated directed graph ``G``.
    commodities:
        The demands to route concurrently.
    reference_rate:
        Capacity normalizer in bits/second (one transceiver ``b``).
    return_flows:
        Also return per-commodity edge flows, summed from the
        certificate's path flows.

    Returns
    -------
    ConcurrentFlowResult
        ``theta`` is ``inf`` with no commodities, ``0.0`` when some
        commodity is disconnected, and otherwise the certificate's
        ``theta_lo``.
    """
    if reference_rate <= 0:
        raise FlowError(f"reference_rate must be positive, got {reference_rate}")
    commodities = [c for c in commodities if c.src != c.dst]
    if not commodities:
        return ConcurrentFlowResult(
            theta=float("inf"), edge_flows=() if return_flows else None
        )
    # Quick reachability screen: a disconnected commodity pins theta at 0.
    for commodity in commodities:
        if not topology.has_path(commodity.src, commodity.dst):
            return ConcurrentFlowResult(theta=0.0, edge_flows=None)
    master = _PathMaster(topology, commodities, reference_rate)
    theta, flows, theta_hi, lengths = master.run(master.seed())
    routes = master.routes(theta, flows)
    certificate = ThetaCertificate(
        theta_lo=theta,
        theta_hi=theta_hi,
        paths=tuple(
            tuple((master.node_path(k, path), flow) for path, flow in per)
            for k, per in enumerate(routes)
        ),
        edges=master.edges,
        lengths=tuple(lengths.tolist()),
    )
    edge_flows = None
    if return_flows:
        edge_flows = []
        for per in routes:
            totals: dict[tuple[object, object], float] = {}
            for path, flow in per:
                for e in path:
                    edge = master.edges[e]
                    totals[edge] = totals.get(edge, 0.0) + flow
            edge_flows.append({e: f for e, f in totals.items() if f > 1e-12})
        edge_flows = tuple(edge_flows)
    return ConcurrentFlowResult(
        theta=theta, edge_flows=edge_flows, certificate=certificate
    )


def _distances(
    n_nodes: int,
    tails: np.ndarray,
    heads: np.ndarray,
    lengths: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Bellman-Ford in numpy: ``(len(sources), n_nodes)`` distances."""
    dist = np.full((len(sources), n_nodes), np.inf)
    dist[np.arange(len(sources)), sources] = 0.0
    if len(tails) == 0:
        return dist
    order = np.argsort(heads, kind="stable")
    tails, heads, lengths = tails[order], heads[order], lengths[order]
    starts = np.flatnonzero(np.r_[True, heads[1:] != heads[:-1]])
    targets = heads[starts]
    for _ in range(n_nodes):
        relaxed = np.minimum.reduceat(dist[:, tails] + lengths, starts, axis=1)
        improved = np.minimum(dist[:, targets], relaxed)
        if np.array_equal(improved, dist[:, targets]):
            break
        dist[:, targets] = improved
    return dist


def verify_certificate(
    topology: Topology,
    commodities: Sequence[Commodity],
    reference_rate: float,
    certificate: ThetaCertificate,
) -> tuple[float, float]:
    """Recheck a :class:`ThetaCertificate` with numpy alone.

    Walks every path against ``topology``, recomputes the per-commodity
    throughput and edge loads of the path flows (scaling them into
    capacity if they overshoot), and recomputes every shortest distance
    under the certificate's lengths by Bellman-Ford.  No LP solver and
    none of the certificate's own bounds are consulted.

    Returns
    -------
    (theta_lo, theta_hi)
        The recomputed interval: ``theta_lo`` is achievable and
        ``theta_hi`` bounds every feasible theta.

    Raises
    ------
    FlowError
        If a path is not a path of ``topology`` between its commodity's
        endpoints, a flow or length is negative or not finite, or the
        certificate does not match the commodities or the edges.
    """
    commodities = [c for c in commodities if c.src != c.dst]
    if len(certificate.paths) != len(commodities):
        raise FlowError(
            f"certificate routes {len(certificate.paths)} commodities, "
            f"expected {len(commodities)}"
        )
    nodes = list(topology.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    edge_index = {(u, v): e for e, (u, v, _) in enumerate(topology.edges())}
    capacity = np.array([c for _, _, c in topology.edges()], dtype=float)
    capacity /= reference_rate

    load = np.zeros(len(capacity))
    throughput = []
    for commodity, routes in zip(commodities, certificate.paths):
        shipped = 0.0
        for path, flow in routes:
            if not (np.isfinite(flow) and flow >= 0):
                raise FlowError(f"invalid path flow {flow!r}")
            if path[0] != commodity.src or path[-1] != commodity.dst:
                raise FlowError(
                    f"path {path!r} does not join {commodity.src!r} to "
                    f"{commodity.dst!r}"
                )
            for hop in zip(path, path[1:]):
                if hop not in edge_index:
                    raise FlowError(f"path {path!r} uses missing edge {hop!r}")
                load[edge_index[hop]] += flow
            shipped += flow
        throughput.append(shipped / commodity.demand)
    overload = max(1.0, float(np.max(load / capacity))) if len(capacity) else 1.0
    theta_lo = min(throughput) / overload

    lengths = np.zeros(len(capacity))
    if len(certificate.edges) != len(certificate.lengths):
        raise FlowError("certificate edges and lengths differ in count")
    for edge, length in zip(certificate.edges, certificate.lengths):
        if edge not in edge_index:
            raise FlowError(f"certificate length on missing edge {edge!r}")
        if not (np.isfinite(length) and length >= 0):
            raise FlowError(f"invalid edge length {length!r}")
        lengths[edge_index[edge]] = length
    tails = np.array([index[u] for u, _ in edge_index], dtype=np.int64)
    heads = np.array([index[v] for _, v in edge_index], dtype=np.int64)
    src = np.array([index[c.src] for c in commodities], dtype=np.int64)
    sources, row_of = np.unique(src, return_inverse=True)
    dist = _distances(len(nodes), tails, heads, lengths, sources)
    reached = dist[row_of, [index[c.dst] for c in commodities]]
    weighted = float(np.array([c.demand for c in commodities]) @ reached)
    theta_hi = float(capacity @ lengths) / weighted if weighted > 0 else float("inf")
    return theta_lo, theta_hi
