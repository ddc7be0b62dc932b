"""Capacitated directed topologies for photonic scale-up domains.

A :class:`Topology` is the graph ``G = (V, E)`` of paper §3.2: nodes are
GPU ranks (integers ``0..n_ranks-1``) plus optional relay nodes (e.g.
electrical switches in the DGX model), and every directed edge carries a
capacity in bits/second.

A single-transceiver optical circuit switch can only realize topologies
whose rank in/out degree is one (a permutation); higher-degree
topologies model multi-port designs (paper §3.3 "degree > 2 networks").
:meth:`Topology.validate_realizable` audits a topology against a port
budget.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Mapping

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path

from .._validation import require_node_count, require_positive
from ..exceptions import TopologyError
from ..matching import Matching

__all__ = ["Topology"]

NodeId = Hashable


class Fingerprint(tuple):
    """A topology fingerprint: a plain tuple that hashes once.

    Every theta, hop and incidence memo key hashes the fingerprint, and
    a fabric's fingerprint holds one string triple per edge; the block
    solver's pod subproblem keys, which hold one triple per pod edge,
    are ``Fingerprint``s for the same reason.  It compares, hashes and ``repr``-s exactly like the plain
    tuple (so content digests are unchanged); the cached hash is dropped
    on pickling and copying, because string hashes differ between
    processes.
    """

    def __hash__(self) -> int:
        try:
            return self.__dict__["hash"]
        except KeyError:
            value = self.__dict__["hash"] = tuple.__hash__(self)
            return value

    def __reduce__(self):
        return Fingerprint, (tuple(self),)


class Topology:
    """A directed, capacitated interconnect topology.

    Parameters
    ----------
    n_ranks:
        Number of GPU endpoints.  Ranks are the integers ``0..n_ranks-1``
        and must all be present in the graph.
    edges:
        Iterable of ``(u, v, capacity_bps)`` triples.  Parallel edges are
        merged by summing capacities (two wavelengths between the same
        ports behave as one fatter circuit at flow level).
    name:
        Human-readable identifier used in reports.
    metadata:
        Optional structural hints (e.g. ``{"family": "ring", ...}``)
        consumed by closed-form throughput fast paths in
        :mod:`repro.flows.closed_forms`.
    """

    def __init__(
        self,
        n_ranks: int,
        edges: Iterable[tuple[NodeId, NodeId, float]],
        name: str = "custom",
        metadata: Mapping[str, object] | None = None,
    ):
        self._n_ranks = require_node_count(n_ranks, TopologyError, minimum=1)
        self._name = str(name)
        self._metadata: dict[str, object] = dict(metadata or {})
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self._n_ranks))
        for u, v, capacity in edges:
            if u == v:
                raise TopologyError(f"self-loop at node {u!r} is not allowed")
            capacity = require_positive(capacity, "edge capacity", TopologyError)
            if graph.has_edge(u, v):
                graph[u][v]["capacity"] += capacity
            else:
                graph.add_edge(u, v, capacity=capacity)
        self._graph = graph
        self._fingerprint: Fingerprint | None = None
        # The hop table (see _hop_table), built on first use.
        self._node_index: dict[NodeId, int] | None = None
        self._hops: memoryview | None = None
        self._ranks_connected: bool | None = None

    def __getstate__(self) -> dict:
        # A memoryview does not pickle; a copy rebuilds its hop table on
        # demand.
        return {**self.__dict__, "_hops": None}

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable topology name."""
        return self._name

    @property
    def n_ranks(self) -> int:
        """Number of GPU endpoints (ranks ``0..n_ranks-1``)."""
        return self._n_ranks

    @property
    def metadata(self) -> Mapping[str, object]:
        """Structural hints for closed-form fast paths (read-only view)."""
        return dict(self._metadata)

    @property
    def graph(self) -> nx.DiGraph:
        """The underlying networkx digraph (treat as read-only)."""
        return self._graph

    def fingerprint(self) -> Fingerprint:
        """A hashable structural key: ``(n_ranks, sorted edge triples)``.

        Used to key throughput caches; two topologies with identical
        fingerprints have identical flow behaviour regardless of name.
        """
        if self._fingerprint is None:
            edge_key = tuple(
                sorted(
                    (repr(u), repr(v), round(data["capacity"], 6))
                    for u, v, data in self._graph.edges(data=True)
                )
            )
            self._fingerprint = Fingerprint((self._n_ranks, edge_key))
        return self._fingerprint

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, n_ranks={self._n_ranks}, "
            f"nodes={self._graph.number_of_nodes()}, "
            f"edges={self._graph.number_of_edges()})"
        )

    # -- structure queries -----------------------------------------------------

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """All nodes (ranks first, then relay nodes)."""
        return tuple(range(self._n_ranks)) + self.relay_nodes

    @property
    def relay_nodes(self) -> tuple[NodeId, ...]:
        """Nodes that are not GPU ranks (e.g. electrical switches)."""
        ranks = set(range(self._n_ranks))
        return tuple(
            sorted((n for n in self._graph.nodes if n not in ranks), key=repr)
        )

    def edges(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Iterate ``(u, v, capacity_bps)`` triples."""
        for u, v, data in self._graph.edges(data=True):
            yield u, v, data["capacity"]

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return self._graph.number_of_edges()

    def capacity(self, u: NodeId, v: NodeId) -> float:
        """Capacity of edge ``(u, v)`` in bits/second.

        Raises :class:`TopologyError` if the edge does not exist.
        """
        try:
            return float(self._graph[u][v]["capacity"])
        except KeyError:
            raise TopologyError(f"no edge ({u!r}, {v!r}) in topology {self._name!r}")

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether the directed edge ``(u, v)`` exists."""
        return self._graph.has_edge(u, v)

    def out_capacity(self, node: NodeId) -> float:
        """Total egress capacity of ``node`` in bits/second."""
        return float(
            sum(data["capacity"] for _, _, data in self._graph.out_edges(node, data=True))
        )

    def in_capacity(self, node: NodeId) -> float:
        """Total ingress capacity of ``node`` in bits/second."""
        return float(
            sum(data["capacity"] for _, _, data in self._graph.in_edges(node, data=True))
        )

    def out_degree(self, node: NodeId) -> int:
        """Number of outgoing edges of ``node``."""
        return int(self._graph.out_degree(node))

    def in_degree(self, node: NodeId) -> int:
        """Number of incoming edges of ``node``."""
        return int(self._graph.in_degree(node))

    @property
    def max_degree(self) -> int:
        """Maximum of in/out degree over rank nodes (the "graph degree"
        proxy of the paper's research agenda)."""
        ranks = range(self._n_ranks)
        return max(
            max(self.out_degree(r), self.in_degree(r)) for r in ranks
        )

    # -- paths ----------------------------------------------------------------

    def _hop_table(self) -> memoryview:
        """Every shortest-path hop count, computed once and then kept.

        An int32 matrix over :attr:`nodes` (ranks first, so a rank is
        its own index; ``-1`` where no path exists), filled by one C
        all-sources pass (``csgraph.shortest_path``): 4 bytes per node
        pair.  It is read through a 2-D ``memoryview``, which indexes
        about as fast as a dict read (numpy scalar indexing is ~2x
        slower).
        """
        if self._hops is None:
            nodes = self.nodes
            adjacency = nx.to_scipy_sparse_array(self._graph, nodes, weight=None)
            hops = shortest_path(adjacency, unweighted=True)
            hops = np.nan_to_num(hops, posinf=-1).astype(np.int32)
            n = self._n_ranks
            self._ranks_connected = bool((hops[:n, :n] >= 0).all())
            self._node_index = {node: i for i, node in enumerate(nodes)}
            self._hops = memoryview(hops)
        return self._hops

    def hop_distance(self, src: NodeId, dst: NodeId) -> int:
        """Shortest-path hop count from ``src`` to ``dst``.

        Raises :class:`TopologyError` when ``dst`` is unreachable; a
        collective step whose pair is disconnected has no finite
        completion time and callers must treat that explicitly.
        """
        hops = self._hops
        if hops is None:
            hops = self._hop_table()
        index = self._node_index
        try:
            value = hops[index[src], index[dst]]
        except KeyError:
            unknown = dst if src in index else src
            raise TopologyError(f"no node {unknown!r} in topology {self._name!r}")
        if value < 0:
            raise TopologyError(
                f"no path from {src!r} to {dst!r} in topology {self._name!r}"
            )
        return value

    def has_path(self, src: NodeId, dst: NodeId) -> bool:
        """Whether any directed path connects ``src`` to ``dst``
        (``False`` when either is not a node)."""
        hops = self._hop_table()
        i = self._node_index.get(src)
        j = self._node_index.get(dst)
        return i is not None and j is not None and hops[i, j] >= 0

    def shortest_path(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """One shortest path (list of nodes) from ``src`` to ``dst``."""
        try:
            return nx.shortest_path(self._graph, src, dst)
        except nx.NetworkXNoPath:
            raise TopologyError(
                f"no path from {src!r} to {dst!r} in topology {self._name!r}"
            )

    def diameter_over_ranks(self) -> int:
        """Maximum hop distance over all ordered rank pairs."""
        if not self.is_strongly_connected_over_ranks():
            raise TopologyError(
                f"no path between some ranks of topology {self._name!r}"
            )
        n = self._n_ranks
        return int(np.asarray(self._hops)[:n, :n].max())

    def supports(self, matching: Matching) -> bool:
        """Whether every pair of ``matching`` is connected in this topology."""
        if self.is_strongly_connected_over_ranks() and matching.n <= self._n_ranks:
            return True
        return all(self.has_path(s, d) for s, d in matching)

    # -- audits -----------------------------------------------------------------

    def validate_realizable(
        self, ports_per_rank: int = 1, port_rate: float | None = None
    ) -> None:
        """Audit this topology against a physical port budget.

        A rank with ``ports_per_rank`` transceivers of ``port_rate`` each
        can terminate at most that many circuits (in each direction) and
        at most the aggregate bandwidth.  Raises :class:`TopologyError`
        on violation.  Relay nodes are exempt (they model electrical
        switches, not photonic ports).
        """
        for rank in range(self._n_ranks):
            if self.out_degree(rank) > ports_per_rank:
                raise TopologyError(
                    f"rank {rank} has out-degree {self.out_degree(rank)} "
                    f"> {ports_per_rank} ports"
                )
            if self.in_degree(rank) > ports_per_rank:
                raise TopologyError(
                    f"rank {rank} has in-degree {self.in_degree(rank)} "
                    f"> {ports_per_rank} ports"
                )
            if port_rate is not None:
                budget = ports_per_rank * port_rate
                if self.out_capacity(rank) > budget * (1 + 1e-9):
                    raise TopologyError(
                        f"rank {rank} egress capacity exceeds port budget"
                    )
                if self.in_capacity(rank) > budget * (1 + 1e-9):
                    raise TopologyError(
                        f"rank {rank} ingress capacity exceeds port budget"
                    )

    def is_strongly_connected_over_ranks(self) -> bool:
        """Whether every rank can reach every other rank."""
        self._hop_table()
        return self._ranks_connected

    # -- derivation ---------------------------------------------------------------

    def scaled(self, factor: float, name: str | None = None) -> "Topology":
        """A copy with every edge capacity multiplied by ``factor``.

        The closed-form ``family`` hint is dropped: the formulas assume
        the family's own capacities, so theta of the copy comes from the
        LP."""
        factor = require_positive(factor, "scale factor", TopologyError)
        return Topology(
            self._n_ranks,
            ((u, v, c * factor) for u, v, c in self.edges()),
            name=name or f"{self._name}*{factor:g}",
            metadata={k: v for k, v in self._metadata.items() if k != "family"},
        )

    def union(self, other: "Topology", name: str | None = None) -> "Topology":
        """Edge-wise union (capacities on shared edges add)."""
        if other.n_ranks != self._n_ranks:
            raise TopologyError("cannot union topologies with different n_ranks")
        edges = list(self.edges()) + list(other.edges())
        return Topology(
            self._n_ranks,
            edges,
            name=name or f"{self._name}+{other.name}",
        )
