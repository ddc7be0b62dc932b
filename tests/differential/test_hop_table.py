"""The hop table against networkx, and the matched-rate multiplier
against its per-pair minimum.

:class:`~repro.topology.Topology` answers every hop query from one
int32 table filled by a single C all-sources pass; the oracle here is
the per-source networkx BFS it replaced.  Every ordered node pair is
compared (relay nodes included), plus ``supports`` and ``path_length``
under all three rules on a few matchings per case.  The second half
pins :meth:`FabricHealth.matched_multiplier
<repro.fabric.FabricHealth.matched_multiplier>`, which reads only the
dimmed ports, bit for bit against the minimum of ``pair_multiplier``
over the matching's pairs.
"""

from __future__ import annotations

import copy
import pickle

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from families import matchings
from repro.exceptions import TopologyError
from repro.fabric import FabricHealth
from repro.flows import PathLengthRule, path_length
from repro.matching import Matching
from repro.topology import Topology, dgx, hypercube, pod_fabric, ring, torus
from repro.units import Gbps

B = Gbps(800)


def _failed_pod_fabric() -> Topology:
    # Two dark ring lanes lengthen paths in pod 0; rank 13 has no
    # uplink, so with both its ring lanes dark it reaches nothing.
    lanes = ((0, 1), (3, 2), (13, 12), (13, 14))
    return FabricHealth(failed_transceivers=lanes).apply(pod_fabric(32, B, pods=4))


CASES = {
    "ring": lambda: ring(12, B),
    "ring-unidirectional": lambda: ring(9, B, bidirectional=False),
    "torus": lambda: torus((3, 4), B),
    "hypercube": lambda: hypercube(16, B),
    "dgx": lambda: dgx(8, B),
    "pod-fabric": lambda: pod_fabric(32, B, pods=4),
    "pod-fabric-failed-lanes": _failed_pod_fabric,
    "disconnected": lambda: Topology(
        6, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, "sw", 1.0)]
    ),
}


def _oracle(topology: Topology) -> dict:
    return {
        node: nx.single_source_shortest_path_length(topology.graph, node)
        for node in topology.graph.nodes
    }


def _case_matchings(n: int) -> list[Matching]:
    return [
        Matching.shift(n, 1),
        Matching.shift(n, n // 2),
        Matching.shift(n, n - 1),
        Matching(n, [(0, n - 1), (n - 1, 1)]),
        Matching(n, []),
    ]


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_node_pair_matches_networkx(name):
    topology = CASES[name]()
    oracle = _oracle(topology)
    assert set(topology.nodes) == set(oracle)
    for src, reached in oracle.items():
        for dst in topology.nodes:
            assert topology.has_path(src, dst) == (dst in reached), (src, dst)
            if dst in reached:
                assert topology.hop_distance(src, dst) == reached[dst], (src, dst)
            else:
                with pytest.raises(TopologyError, match="no path"):
                    topology.hop_distance(src, dst)
    ranks = range(topology.n_ranks)
    connected = all(d in oracle[s] for s in ranks for d in ranks)
    assert topology.is_strongly_connected_over_ranks() == connected
    if connected:
        assert topology.diameter_over_ranks() == max(
            oracle[s][d] for s in ranks for d in ranks
        )
    else:
        with pytest.raises(TopologyError, match="no path"):
            topology.diameter_over_ranks()


@pytest.mark.parametrize("name", sorted(CASES))
def test_supports_and_path_length_match_networkx(name):
    topology = CASES[name]()
    oracle = _oracle(topology)
    for matching in _case_matchings(topology.n_ranks):
        hops = [oracle[s].get(d) for s, d in matching]
        connected = None not in hops
        assert topology.supports(matching) == connected, matching
        for rule in PathLengthRule:
            if not matching.pairs:
                assert path_length(topology, matching, rule) == 0.0
            elif not connected:
                with pytest.raises(TopologyError, match="no path"):
                    path_length(topology, matching, rule)
            else:
                expected = {
                    PathLengthRule.MAX_PAIR_HOPS: float(max(hops)),
                    PathLengthRule.MEAN_PAIR_HOPS: float(sum(hops)) / len(hops),
                    PathLengthRule.SUM_PAIR_HOPS: float(sum(hops)),
                }[rule]
                assert path_length(topology, matching, rule) == expected


def test_unknown_nodes():
    topology = dgx(8, B)
    with pytest.raises(TopologyError, match="no node 99"):
        topology.hop_distance(99, 0)
    with pytest.raises(TopologyError, match="no node 'nowhere'"):
        topology.hop_distance(0, "nowhere")
    assert not topology.has_path(0, "nowhere")
    assert not topology.has_path(-1, 0)
    # A matching wider than the topology is not supported, even on a
    # strongly connected one.
    assert not ring(4, B).supports(Matching(6, [(0, 5)]))


@pytest.mark.parametrize(
    "clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_copies_after_a_hop_query_rebuild_the_table(clone):
    topology = dgx(8, B)
    assert topology.hop_distance(0, 5) == 2
    copied = clone(topology)
    assert copied.fingerprint() == topology.fingerprint()
    assert all(
        copied.hop_distance(s, d) == topology.hop_distance(s, d)
        for s in topology.nodes
        for d in topology.nodes
    )


def test_n256_pod_fabric_table_is_one_int32_matrix():
    topology = pod_fabric(256, B, pods=8)
    assert topology.hop_distance(0, 255) > 0
    hops = np.asarray(topology._hop_table())
    n_nodes = len(topology.nodes)
    assert hops.dtype == np.int32 and hops.shape == (n_nodes, n_nodes)
    assert hops.nbytes == 4 * n_nodes**2
    # No per-source dict of distances is kept beside it.
    assert not any(
        isinstance(value, dict)
        and any(isinstance(row, dict) for row in value.values())
        and len(value) >= topology.n_ranks
        for value in vars(topology).values()
    )


@st.composite
def _conditions(draw, n: int) -> FabricHealth:
    dimmed = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
            max_size=n,
        )
    )
    total = draw(st.integers(1, 9))
    return FabricHealth(
        port_multipliers=tuple(dimmed.items()),
        dead_wavelengths=draw(st.integers(0, total - 1)),
        total_wavelengths=total,
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.sampled_from((2, 5, 8, 16)))
def test_matched_multiplier_is_the_per_pair_minimum_bit_for_bit(data, n):
    health = data.draw(_conditions(n))
    matching = data.draw(matchings(n))
    expected = min(
        (health.pair_multiplier(s, d) for s, d in matching), default=1.0
    )
    assert health.matched_multiplier(matching) == expected
