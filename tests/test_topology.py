"""Topology substrate: construction, queries, audits, constructors."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

from repro.exceptions import TopologyError
from repro.flows import theta_key_digest, theta_tag
from repro.matching import Matching
from repro.topology import (
    Topology,
    coprime_rings,
    default_coprime_shifts,
    dgx,
    full_mesh,
    hypercube,
    line,
    matched_topology,
    multi_matched_topology,
    random_permutation_union,
    random_regular,
    ring,
    star,
    torus,
)
from repro.units import Gbps

B = Gbps(800)


class TestTopologyBase:
    def test_parallel_edges_merge(self):
        t = Topology(2, [(0, 1, 10.0), (0, 1, 5.0)])
        assert t.capacity(0, 1) == 15.0
        assert t.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Topology(2, [(0, 0, 1.0)])

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1, 0.0)])
        with pytest.raises(TopologyError):
            Topology(2, [(0, 1, -1.0)])

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_rates(self, value):
        message = "must be a finite number > 0"
        with pytest.raises(TopologyError, match=f"edge capacity {message}"):
            Topology(2, [(0, 1, value)])
        with pytest.raises(TopologyError, match=f"scale factor {message}"):
            ring(4, B).scaled(value)
        with pytest.raises(TopologyError, match=f"circuit_rate {message}"):
            matched_topology(Matching.shift(4, 1), value)
        with pytest.raises(TopologyError, match=f"link_bandwidth {message}"):
            ring(4, value)

    def test_missing_edge_raises(self):
        t = Topology(3, [(0, 1, 1.0)])
        with pytest.raises(TopologyError, match="no edge"):
            t.capacity(1, 0)

    def test_hop_distance_and_paths(self):
        t = ring(6, B, bidirectional=False)
        assert t.hop_distance(0, 3) == 3
        assert t.hop_distance(3, 0) == 3  # around the directed ring
        assert t.hop_distance(2, 2) == 0
        assert t.shortest_path(0, 2) == [0, 1, 2]

    def test_nodes_list_ranks_then_sorted_relays(self):
        t = Topology(
            3,
            [(0, "sw-b", 1.0), ("sw-b", 1, 1.0), (2, "sw-a", 1.0), ("sw-a", 0, 1.0)],
        )
        assert t.nodes == (0, 1, 2, "sw-a", "sw-b")
        assert t.nodes == tuple(range(t.n_ranks)) + t.relay_nodes
        assert ring(5, B).nodes == (0, 1, 2, 3, 4)

    def test_unreachable_raises(self):
        t = Topology(3, [(0, 1, 1.0)])
        assert not t.has_path(1, 2)
        with pytest.raises(TopologyError, match="no path"):
            t.hop_distance(1, 2)

    def test_fingerprint_name_independent(self):
        a = Topology(3, [(0, 1, 1.0), (1, 2, 2.0)], name="x")
        b = Topology(3, [(1, 2, 2.0), (0, 1, 1.0)], name="y")
        assert a.fingerprint() == b.fingerprint()

    def test_capacity_accounting(self):
        t = ring(4, B)
        assert t.out_capacity(0) == pytest.approx(B)
        assert t.in_capacity(0) == pytest.approx(B)
        assert t.out_degree(0) == 2

    def test_supports_matching(self):
        t = ring(6, B)
        assert t.supports(Matching.shift(6, 2))
        sparse = Topology(6, [(0, 1, 1.0)])
        assert not sparse.supports(Matching.shift(6, 1))

    def test_scaled(self):
        t = ring(4, B).scaled(2.0)
        assert t.capacity(0, 1) == pytest.approx(B)

    def test_union_adds_capacity(self):
        a = ring(4, B, bidirectional=False)
        b = ring(4, B, bidirectional=False)
        u = a.union(b)
        assert u.capacity(0, 1) == pytest.approx(2 * B)

    def test_union_rank_mismatch(self):
        with pytest.raises(TopologyError):
            ring(4, B).union(ring(6, B))

    def test_diameter(self):
        assert ring(8, B).diameter_over_ranks() == 4
        assert ring(8, B, bidirectional=False).diameter_over_ranks() == 7


class TestFingerprint:
    """The fingerprint hashes once but is the plain tuple to every
    reader: equality, hash, ``repr`` and content digests."""

    def test_behaves_as_the_plain_tuple(self):
        fingerprint = ring(8, B).fingerprint()
        plain = tuple(fingerprint)
        assert fingerprint == plain and plain == fingerprint
        assert hash(fingerprint) == hash(plain)
        assert hash(fingerprint) == hash(plain)  # the cached value
        assert repr(fingerprint) == repr(plain)
        assert ring(8, B).fingerprint() == fingerprint
        assert {plain: 1}[fingerprint] == 1

    @pytest.mark.parametrize(
        "clone",
        [lambda fp: pickle.loads(pickle.dumps(fp)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_drop_the_cached_hash(self, clone):
        fingerprint = ring(8, B).fingerprint()
        hash(fingerprint)
        copied = clone(fingerprint)
        assert type(copied) is type(fingerprint)
        assert vars(copied) == {}  # nothing cached is carried over
        assert copied == fingerprint
        assert hash(copied) == hash(tuple(fingerprint))

    def test_pickled_fingerprint_hashes_freshly_in_another_process(self):
        fingerprint = ring(8, B).fingerprint()
        hash(fingerprint)
        import repro

        child = subprocess.run(
            [
                sys.executable,
                "-c",
                "import pickle, sys; fp = pickle.loads(sys.stdin.buffer.read()); "
                "print(hash(fp) == hash(tuple(fp)))",
            ],
            input=pickle.dumps(fingerprint),
            capture_output=True,
            timeout=60,
            env={
                **os.environ,
                "PYTHONHASHSEED": "12345",
                "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
            },
        )
        assert child.stdout.strip() == b"True", child.stderr

    def test_theta_digest_is_pinned(self):
        key = (
            ring(8, Gbps(800)).fingerprint(),
            Matching.shift(8, 1),
            theta_tag(Gbps(800)),
        )
        assert theta_key_digest(key) == (
            "e0196c021568aa5ddcde45e6f0c84fb3ad6380a7c49a304ceb8fd6759cf1b684"
        )


class TestRing:
    def test_bidirectional_splits_bandwidth(self):
        t = ring(8, B)
        assert t.capacity(0, 1) == pytest.approx(B / 2)
        assert t.capacity(1, 0) == pytest.approx(B / 2)

    def test_unidirectional_full_bandwidth(self):
        t = ring(8, B, bidirectional=False)
        assert t.capacity(0, 1) == pytest.approx(B)
        assert not t.has_edge(1, 0)

    def test_metadata(self):
        t = ring(8, B)
        assert t.metadata["family"] == "ring"
        assert t.metadata["per_direction_fraction"] == 0.5

    def test_realizability_audit(self):
        # one port cannot host the bidirectional ring's two circuits
        with pytest.raises(TopologyError):
            ring(8, B).validate_realizable(ports_per_rank=1)
        ring(8, B).validate_realizable(ports_per_rank=2, port_rate=B / 2)
        ring(8, B, bidirectional=False).validate_realizable(
            ports_per_rank=1, port_rate=B
        )

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            ring(1, B)


class TestTorus:
    def test_2d_torus_shape(self):
        t = torus((4, 4), B)
        assert t.n_ranks == 16
        assert t.out_degree(0) == 4
        assert t.capacity(0, 1) == pytest.approx(B / 4)

    def test_dimension_of_two_merges(self):
        t = torus((2, 4), B)
        assert t.out_degree(0) == 3  # 1 (dim of size 2) + 2

    def test_1d_torus_is_a_ring(self):
        t = torus((6,), B)
        assert t.out_degree(0) == 2
        assert t.hop_distance(0, 3) == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(TopologyError):
            torus((), B)
        with pytest.raises(TopologyError):
            torus((1, 4), B)

    def test_wraparound(self):
        t = torus((4, 4), B)
        # node 0 = (0,0); (3,0) = index 12 is a neighbor via wraparound
        assert t.has_edge(0, 12)


class TestHypercube:
    def test_structure(self):
        t = hypercube(8, B)
        assert t.out_degree(0) == 3
        assert t.capacity(0, 4) == pytest.approx(B / 3)
        assert t.hop_distance(0, 7) == 3

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TopologyError):
            hypercube(6, B)


class TestMeshStarLineDgx:
    def test_full_mesh(self):
        t = full_mesh(5, B)
        assert t.num_edges == 20
        assert t.capacity(0, 4) == pytest.approx(B / 4)
        assert t.diameter_over_ranks() == 1

    def test_star_uses_relay(self):
        t = star(6, B)
        assert t.relay_nodes == ("switch",)
        assert t.hop_distance(0, 5) == 2

    def test_line_has_no_wraparound(self):
        t = line(5, B)
        assert not t.has_edge(4, 0)
        assert t.hop_distance(0, 4) == 4

    def test_dgx_planes(self):
        t = dgx(8, B, n_planes=4)
        assert len(t.relay_nodes) == 4
        assert t.out_capacity(0) == pytest.approx(B)
        assert t.hop_distance(0, 7) == 2

    def test_dgx_rejects_bad_planes(self):
        with pytest.raises(TopologyError):
            dgx(8, B, n_planes=0)


class TestCoprimeRings:
    def test_default_shifts(self):
        assert default_coprime_shifts(8, 2) == (1, 3)
        assert default_coprime_shifts(9, 2) == (1, 2)

    def test_default_shifts_exhaustion(self):
        with pytest.raises(TopologyError):
            default_coprime_shifts(4, 5)

    def test_union_capacity_split(self):
        t = coprime_rings(8, (1, 3), B)
        assert t.capacity(0, 1) == pytest.approx(B / 2)
        assert t.capacity(0, 3) == pytest.approx(B / 2)
        assert t.out_capacity(0) == pytest.approx(B)

    def test_duplicate_shift_rejected(self):
        with pytest.raises(TopologyError):
            coprime_rings(8, (1, 1), B)

    def test_bidirectional(self):
        t = coprime_rings(8, (3,), B, bidirectional=True)
        assert t.has_edge(3, 0)
        assert t.capacity(0, 3) == pytest.approx(B / 2)


class TestMatchedTopology:
    def test_dedicated_circuits(self):
        m = Matching.xor_exchange(8, 1)
        t = matched_topology(m, B)
        assert t.capacity(0, 1) == pytest.approx(B)
        assert t.out_degree(0) == 1

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            matched_topology(Matching.identity(4), B)

    def test_multi_matched_union(self):
        t = multi_matched_topology(
            [Matching.shift(6, 1), Matching.shift(6, 2)], B
        )
        assert t.out_degree(0) == 2
        assert t.capacity(0, 1) == pytest.approx(B)


class TestGenerators:
    def test_random_regular_degree(self):
        t = random_regular(10, 3, B, seed=7)
        for node in range(10):
            assert t.out_degree(node) == 3
            assert t.out_capacity(node) == pytest.approx(B)

    def test_random_regular_seed_reproducible(self):
        a = random_regular(10, 3, B, seed=1)
        b = random_regular(10, 3, B, seed=1)
        assert a.fingerprint() == b.fingerprint()

    def test_random_regular_validation(self):
        with pytest.raises(TopologyError):
            random_regular(10, 1, B)
        with pytest.raises(TopologyError):
            random_regular(5, 3, B)  # odd n * d

    def test_random_permutation_union(self):
        t = random_permutation_union(8, 3, B, seed=3)
        for node in range(8):
            # Overlapping derangements merge into fatter edges, so the
            # degree may drop below k, but capacity is conserved.
            assert 1 <= t.out_degree(node) <= 3
            assert t.out_capacity(node) == pytest.approx(B)
