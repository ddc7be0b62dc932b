"""Path column generation vs the edge-flow LP, with certificate checks.

``max_concurrent_flow`` prices theta by column generation over paths
and returns a :class:`~repro.flows.ThetaCertificate`.  Every input here
is solved twice — by it and by the edge-flow LP oracle below (one flow
variable per commodity and edge, the formulation the repo used before)
— and the values must agree at TOL.  Independently of both solvers,
:func:`~repro.flows.verify_certificate` recomputes the certified
interval with numpy alone (``families.certified_theta``).

Inputs: the shared ``families`` generators (closed-form and LP-only
topologies, degraded rings), DGX fabrics whose switch planes are relay
nodes, and the block solver's pod and coarse subproblems, whose
commodities include source -> core and core -> destination segments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from families import (
    RATE,
    ROUNDING,
    TOL,
    agree,
    certified_theta,
    closed_form_families,
    degraded_variants,
    lp_only_families,
)
from repro.exceptions import FlowError
from repro.flows import (
    Commodity,
    ThetaCertificate,
    commodities_from_matching,
    max_concurrent_flow,
    verify_certificate,
)
from repro.flows import block, concurrent_flow
from repro.flows.block import (
    _coarse_theta,
    _collect_pod_edges,
    _partition_matching,
    _pod_commodities,
    pod_structure,
)
from repro.matching import Matching
from repro.topology import PodFabric, Topology, dgx, ring, torus

def edge_lp_theta(topology, commodities, rate) -> float:
    """The edge-flow LP oracle: maximize phi subject to per-commodity
    flow conservation (shipping ``phi * w_k``) and edge capacities."""
    commodities = [c for c in commodities if c.src != c.dst]
    if not commodities:
        return math.inf
    if not all(topology.has_path(c.src, c.dst) for c in commodities):
        return 0.0
    index = {node: i for i, node in enumerate(topology.nodes)}
    edges = list(topology.edges())
    n_nodes, n_edges, n_comm = len(index), len(edges), len(commodities)
    rows, cols, vals = [], [], []
    for k, commodity in enumerate(commodities):
        for e, (u, v, _) in enumerate(edges):
            column = 1 + k * n_edges + e
            rows += [k * n_nodes + index[u], k * n_nodes + index[v]]
            cols += [column, column]
            vals += [1.0, -1.0]
        rows += [k * n_nodes + index[commodity.src], k * n_nodes + index[commodity.dst]]
        cols += [0, 0]
        vals += [-commodity.demand, commodity.demand]
    n_vars = 1 + n_comm * n_edges
    a_eq = sparse.csr_matrix((vals, (rows, cols)), shape=(n_comm * n_nodes, n_vars))
    flows = np.arange(n_comm * n_edges)
    a_ub = sparse.csr_matrix(
        (np.ones(len(flows)), (flows % n_edges, 1 + flows)),
        shape=(n_edges, n_vars),
    )
    objective = np.zeros(n_vars)
    objective[0] = -1.0
    result = linprog(
        objective,
        A_ub=a_ub,
        b_ub=np.array([c for _, _, c in edges]) / rate,
        A_eq=a_eq,
        b_eq=np.zeros(n_comm * n_nodes),
        bounds=(0, None),
        method="highs",
    )
    assert result.status == 0, result.message
    return float(result.x[0])


def check(topology, commodities, rate=RATE) -> float:
    """Solve both ways, compare, and verify the certificate."""
    theta = certified_theta(topology, commodities, rate)
    oracle = edge_lp_theta(topology, commodities, rate)
    assert agree(theta, oracle), (topology.name, theta, oracle)
    return theta


def pod_subproblems(fabric: PodFabric, matching: Matching):
    """The block solver's pod subproblems and coarse star for a pattern."""
    topology = fabric.flat_topology()
    structure = pod_structure(topology)
    intra, seg_out, seg_in, inter = _partition_matching(structure, matching)
    problems = []
    for p, edges in enumerate(_collect_pod_edges(topology, structure)):
        commodities = _pod_commodities(structure.core, intra[p], seg_out[p], seg_in[p])
        if commodities:
            problems.append((Topology(structure.ranges[p][1], edges), commodities))
    return topology, structure, inter, problems


class TestFamilies:
    @pytest.mark.parametrize("families", [closed_form_families, lp_only_families])
    def test_every_family_row(self, families):
        for topology, patterns in families(8):
            for matching in patterns:
                check(topology, commodities_from_matching(matching))

    def test_degraded_rings(self):
        n = 8
        for _, topology in degraded_variants(ring(n, RATE), n):
            for k in (1, 3, 4):
                check(topology, commodities_from_matching(Matching.shift(n, k)))

    def test_mixed_demands(self):
        topology = ring(6, RATE)
        check(
            topology,
            (Commodity(0, 3, 1.0), Commodity(1, 4, 0.25), Commodity(5, 2, 2.5)),
        )

    @pytest.mark.parametrize("n,planes", [(8, 4), (16, 4), (12, 3)])
    def test_dgx_relay_planes(self, n, planes):
        topology = dgx(n, RATE, planes)
        assert topology.relay_nodes  # the planes are relay nodes
        for matching in (Matching.shift(n, 1), Matching.shift(n, 3)):
            theta = check(topology, commodities_from_matching(matching))
            assert theta == pytest.approx(1.0, rel=TOL)
        # Fan-in at rank 1 makes the switched fabric port-bound.
        fan_in = (Commodity(0, 1), Commodity(2, 1), Commodity(3, 5, 0.5))
        assert check(topology, fan_in) == pytest.approx(0.5, rel=TOL)

    def test_small_torus(self):
        topology = torus((3, 4), RATE)
        for k in (1, 5):
            check(topology, commodities_from_matching(Matching.shift(12, k)))


class TestPodSubproblems:
    @pytest.mark.parametrize(
        "fabric",
        [
            PodFabric(pod_sizes=(8, 8, 8), bandwidth=RATE, uplinks_per_pod=2),
            PodFabric(pod_sizes=(4, 6, 8), bandwidth=RATE, uplinks_per_pod=2),
            PodFabric(
                pod_sizes=(8, 8),
                bandwidth=RATE,
                uplinks_per_pod=3,
                uplink_multipliers=(0.5, 1.0),
            ),
            PodFabric(
                pod_sizes=(8, 8),
                bandwidth=RATE,
                pod_family="hypercube",
                uplinks_per_pod=2,
            ),
        ],
        ids=["uniform", "uneven", "degraded-uplinks", "hypercube-pods"],
    )
    def test_pod_and_coarse_subproblems(self, fabric, monkeypatch):
        n = fabric.n
        stars = []
        monkeypatch.setattr(
            block,
            "_solve_subproblem",
            lambda star, commodities, rate: stars.append((star, commodities)) or 1.0,
        )
        for matching in (Matching.shift(n, n // 2 - 1), Matching.shift(n, 3)):
            topology, structure, inter, problems = pod_subproblems(fabric, matching)
            assert any(
                structure.core in (c.src, c.dst) for _, cs in problems for c in cs
            ), "no core-segment commodity exercised"
            for subgraph, commodities in problems:
                check(subgraph, commodities)
            _coarse_theta(topology, structure, inter, RATE)
        assert stars
        for star, commodities in stars:
            check(star, commodities)


def _replace_paths(cert, k, routes):
    paths = list(cert.paths)
    paths[k] = routes
    return ThetaCertificate(
        cert.theta_lo, cert.theta_hi, tuple(paths), cert.edges, cert.lengths
    )


class TestCertificate:
    def test_verifier_uses_no_solver(self, monkeypatch):
        topology = torus((3, 4), RATE)
        commodities = commodities_from_matching(Matching.shift(12, 5))
        result = max_concurrent_flow(topology, commodities, RATE)

        def forbidden(*args, **kwargs):
            raise AssertionError("the verifier called a solver")

        monkeypatch.setattr(concurrent_flow, "linprog", forbidden)
        monkeypatch.setattr(concurrent_flow, "dijkstra", forbidden)
        lo, hi = verify_certificate(topology, commodities, RATE, result.certificate)
        assert lo <= result.theta * (1 + ROUNDING) and hi - lo <= TOL * lo

    def test_return_flows_ship_theta(self):
        topology = dgx(8, RATE, 2)
        commodities = (Commodity(0, 1), Commodity(2, 1), Commodity(3, 5, 0.5))
        result = max_concurrent_flow(topology, commodities, RATE, return_flows=True)
        for commodity, flows in zip(commodities, result.edge_flows):
            out = sum(f for (u, _), f in flows.items() if u == commodity.src)
            assert out == pytest.approx(result.theta * commodity.demand, rel=1e-12)

    def _certified(self):
        topology = ring(8, RATE)
        commodities = commodities_from_matching(Matching.xor_exchange(8, 3))
        return topology, commodities, max_concurrent_flow(topology, commodities, RATE)

    def test_tampered_paths_are_rejected(self):
        topology, commodities, result = self._certified()
        cert = result.certificate
        (nodes, flow), *rest = cert.paths[0]
        broken = (nodes[:1] + nodes[2:], flow)  # skips a hop: no such edge
        with pytest.raises(FlowError, match="missing edge"):
            verify_certificate(
                topology,
                commodities,
                RATE,
                _replace_paths(cert, 0, (broken, *rest)),
            )
        wrong_end = (nodes[:-1], flow)
        with pytest.raises(FlowError, match="does not join"):
            verify_certificate(
                topology,
                commodities,
                RATE,
                _replace_paths(cert, 0, (wrong_end, *rest)),
            )

    def test_overloaded_flows_are_scaled_down(self):
        topology, commodities, result = self._certified()
        cert = result.certificate
        doubled = tuple((nodes, 2 * flow) for nodes, flow in cert.paths[0])
        lo, _ = verify_certificate(
            topology, commodities, RATE, _replace_paths(cert, 0, doubled)
        )
        assert lo <= result.theta * (1 + ROUNDING)

    def test_bad_lengths_are_rejected_or_loosen_the_bound(self):
        topology, commodities, result = self._certified()
        cert = result.certificate
        negative = ThetaCertificate(
            cert.theta_lo,
            cert.theta_hi,
            cert.paths,
            cert.edges,
            (-1.0,) + cert.lengths[1:],
        )
        with pytest.raises(FlowError, match="length"):
            verify_certificate(topology, commodities, RATE, negative)
        uniform = ThetaCertificate(
            cert.theta_lo,
            cert.theta_hi,
            cert.paths,
            cert.edges,
            (1.0,) * len(cert.edges),
        )
        _, hi = verify_certificate(topology, commodities, RATE, uniform)
        assert hi >= result.theta * (1 - ROUNDING)


class TestMasterSolves:
    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(concurrent_flow, "linprog", counting)
        return calls

    @pytest.mark.parametrize(
        "matching",
        [
            Matching.xor_exchange(64, 16),
            Matching.xor_exchange(64, 3),
            Matching.shift(64, 21),
        ],
        ids=["xor16", "xor3", "shift21"],
    )
    def test_bidirectional_ring_is_one_master_solve(self, solves, matching):
        # Both seeds of every commodity are its only two simple paths.
        commodities = commodities_from_matching(matching)
        result = max_concurrent_flow(ring(64, RATE), commodities, RATE)
        assert len(solves) == 1
        assert result.certificate.theta_hi - result.theta <= TOL * result.theta

    def test_dgx16_shift3_stops_at_the_port_bound(self, solves):
        topology = dgx(16, RATE)
        result = max_concurrent_flow(
            topology, commodities_from_matching(Matching.shift(16, 3)), RATE
        )
        assert result.theta == pytest.approx(1.0, rel=TOL)
        assert len(solves) <= 2
