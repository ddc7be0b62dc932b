"""Sparse rate kernels vs a dense oracle: bit-identical, memoized once per key.

:mod:`repro.sim.rates` allocates max-min and equal-share rates by
walking a sparse (flow x edge) incidence.  The oracle below is the
historical dense path: the same shortest-path routes frozen into a
boolean matrix and reduced with masked numpy.  Edge pressures are exact
integer counts on both sides, so the kernels must agree *bitwise*, not
merely within tolerance; these tests assert ``==`` on every rate.

The incidence structure itself is memoized per (topology fingerprint,
matching); the regression tests at the bottom pin the one-build-per-key
contract that keeps repeated allocations O(flows) instead of
O(flows x BFS).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from families import RATE
from repro.flows import commodities_from_matching, route_shortest_paths
from repro.matching import Matching
from repro.sim import rates as rates_mod
from repro.sim.rates import (
    allocate_rates,
    clear_incidence_cache,
    incidence_build_count,
)
from repro.topology import hypercube, pod_fabric, ring

TOPOLOGIES = [
    ring(16, RATE),
    ring(16, RATE, bidirectional=False),
    hypercube(16, RATE),
    pod_fabric(16, RATE, pods=2, uplinks_per_pod=2),
]

PATTERNS = [
    Matching.shift(16, 1),
    Matching.shift(16, 5),
    Matching.shift(16, 8),
    Matching.xor_exchange(16, 4),
    Matching(16, [(i, (i + 2) % 16) for i in range(0, 16, 2)]),
    Matching(16, [(0, 15)]),
]


# -- the dense oracle ----------------------------------------------------------


def dense_incidence(topology, matching):
    """``(pairs, (F, E) bool incidence, (E,) capacities)`` of the
    matching's shortest-path routes, edges in ``topology.edges()`` order."""
    commodities = commodities_from_matching(matching)
    routing = route_shortest_paths(topology, commodities, reference_rate=1.0)
    edges = list(topology.edges())
    index = {(u, v): e for e, (u, v, _) in enumerate(edges)}
    incidence = np.zeros((len(commodities), len(edges)), dtype=bool)
    for k in range(len(commodities)):
        path = routing.paths[k][0][0]
        for edge in zip(path, path[1:]):
            incidence[k, index[edge]] = True
    capacities = np.array([capacity for _, _, capacity in edges], dtype=float)
    return [(c.src, c.dst) for c in commodities], incidence, capacities


def dense_maxmin(incidence, capacities):
    rates = np.zeros(len(incidence))
    active = np.ones(len(incidence), dtype=bool)
    remaining = capacities.copy()
    while active.any():
        pressure = incidence[active].sum(axis=0)
        share = np.where(pressure > 0, remaining / np.maximum(pressure, 1), np.inf)
        bottleneck = int(np.argmin(share))
        fair_share = float(share[bottleneck])
        saturated = active & incidence[:, bottleneck]
        rates[saturated] = fair_share
        remaining -= fair_share * incidence[saturated].sum(axis=0)
        np.maximum(remaining, 0.0, out=remaining)
        active &= ~saturated
    return rates


def dense_equal(incidence, capacities):
    load = incidence.sum(axis=0)
    share = np.where(load > 0, capacities / np.maximum(load, 1), np.inf)
    return np.where(incidence, share[np.newaxis, :], np.inf).min(axis=1)


def oracle_rates(topology, matching, method):
    pairs, incidence, capacities = dense_incidence(topology, matching)
    kernel = dense_maxmin if method == "maxmin" else dense_equal
    return dict(zip(pairs, kernel(incidence, capacities)))


def assert_matches_oracle(topology, matching, method):
    clear_incidence_cache()
    sparse = allocate_rates(topology, matching, RATE, method=method, cache=None)
    oracle = oracle_rates(topology, matching, method)
    assert len(sparse) == len(oracle) == len(matching)
    for flow in sparse:
        assert flow.hops == float(topology.hop_distance(flow.src, flow.dst))
        assert flow.rate == oracle[(flow.src, flow.dst)]  # bitwise, no tolerance


# -- kernels -------------------------------------------------------------------


@pytest.mark.parametrize("method", ["maxmin", "equal"])
@pytest.mark.parametrize(
    "topology", TOPOLOGIES, ids=lambda t: t.name
)
def test_sparse_and_dense_kernels_are_bit_identical(topology, method):
    for matching in PATTERNS:
        assert_matches_oracle(topology, matching, method)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.sampled_from([8, 16]))
def test_random_matchings_agree_bitwise(data, n):
    topology = data.draw(
        st.sampled_from([ring(n, RATE), hypercube(n, RATE)])
    )
    perm = data.draw(st.permutations(range(n)))
    pairs = [(i, p) for i, p in enumerate(perm) if i != p]
    keep = data.draw(st.integers(0, len(pairs))) if pairs else 0
    matching = Matching(n, pairs[:keep])
    if len(matching) == 0:
        return
    method = data.draw(st.sampled_from(["maxmin", "equal"]))
    assert_matches_oracle(topology, matching, method)


# -- the sparse structure ------------------------------------------------------


def test_incidence_rows_match_the_dense_oracle():
    for topology in TOPOLOGIES:
        for matching in PATTERNS:
            _, incidence, capacities = dense_incidence(topology, matching)
            inc = rates_mod._incidence(topology, matching)
            rows = np.zeros((inc.n_flows, inc.n_edges), dtype=bool)
            rows[inc.entry_row, inc.entry_col] = True
            assert np.array_equal(rows, incidence)
            assert np.array_equal(np.diff(inc.row_indptr), incidence.sum(axis=1))
            assert np.array_equal(inc.capacities, capacities)


def test_incidence_columns_match_the_dense_oracle():
    for topology in TOPOLOGIES:
        for matching in PATTERNS:
            _, incidence, _ = dense_incidence(topology, matching)
            inc = rates_mod._incidence(topology, matching)
            for edge in range(inc.n_edges):
                members = inc.col_entry[
                    inc.col_indptr[edge] : inc.col_indptr[edge + 1]
                ]
                assert sorted(members) == list(np.flatnonzero(incidence[:, edge]))


class TestIncidenceMemo:
    """One incidence build per (topology fingerprint, matching)."""

    def test_repeated_allocations_build_once(self):
        clear_incidence_cache()
        topology = ring(16, RATE)
        matching = Matching.shift(16, 3)
        before = incidence_build_count()
        for _ in range(4):
            allocate_rates(topology, matching, RATE, method="maxmin", cache=None)
        assert incidence_build_count() == before + 1

    def test_methods_share_the_structure(self):
        clear_incidence_cache()
        topology = ring(16, RATE)
        matching = Matching.shift(16, 3)
        before = incidence_build_count()
        allocate_rates(topology, matching, RATE, method="maxmin", cache=None)
        allocate_rates(topology, matching, RATE, method="equal", cache=None)
        assert incidence_build_count() == before + 1

    def test_distinct_keys_build_separately(self):
        clear_incidence_cache()
        topology = ring(16, RATE)
        before = incidence_build_count()
        allocate_rates(
            topology, Matching.shift(16, 1), RATE, method="maxmin", cache=None
        )
        allocate_rates(
            topology, Matching.shift(16, 2), RATE, method="maxmin", cache=None
        )
        # An equal-fingerprint topology object still hits the memo.
        twin = ring(16, RATE)
        allocate_rates(
            twin, Matching.shift(16, 1), RATE, method="maxmin", cache=None
        )
        assert incidence_build_count() == before + 2
