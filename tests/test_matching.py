"""Matching: construction, invariants, queries, and algebra."""

import numpy as np
import pytest

from repro.exceptions import MatchingError
from repro.matching import Matching


class TestConstruction:
    def test_basic_pairs(self):
        m = Matching(4, [(0, 1), (2, 3)])
        assert len(m) == 2
        assert m.dst_of(0) == 1
        assert m.src_of(3) == 2
        assert m.dst_of(1) is None

    def test_rejects_duplicate_source(self):
        with pytest.raises(MatchingError, match="twice as a source"):
            Matching(4, [(0, 1), (0, 2)])

    def test_rejects_duplicate_destination(self):
        with pytest.raises(MatchingError, match="twice as a destination"):
            Matching(4, [(0, 2), (1, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(MatchingError, match="self-loop"):
            Matching(4, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(MatchingError, match="out of range"):
            Matching(4, [(0, 4)])
        with pytest.raises(MatchingError, match="out of range"):
            Matching(4, [(-1, 2)])

    def test_from_permutation_skips_fixed_points(self):
        m = Matching.from_permutation([1, 0, 2, 3])
        assert m.pairs == ((0, 1), (1, 0))

    def test_from_mapping(self):
        m = Matching.from_mapping(4, {0: 3, 3: 0})
        assert (0, 3) in m and (3, 0) in m


class TestShift:
    def test_shift_pairs(self):
        m = Matching.shift(5, 2)
        assert m.dst_of(0) == 2
        assert m.dst_of(4) == 1
        assert m.is_full

    def test_shift_zero_is_empty(self):
        assert len(Matching.shift(5, 0)) == 0
        assert len(Matching.shift(5, 5)) == 0

    def test_negative_shift_wraps(self):
        m = Matching.shift(5, -1)
        assert m.dst_of(0) == 4

    def test_shift_inverse(self):
        m = Matching.shift(6, 2)
        assert m.inverse() == Matching.shift(6, -2)


class TestXorExchange:
    def test_xor_is_involution(self):
        m = Matching.xor_exchange(8, 4)
        assert m.is_involution
        assert m.is_full

    def test_xor_distance_validation(self):
        with pytest.raises(MatchingError):
            Matching.xor_exchange(8, 0)
        with pytest.raises(MatchingError):
            Matching.xor_exchange(8, 8)

    def test_xor_non_power_of_two_rejected(self):
        with pytest.raises(MatchingError, match="without a partner"):
            Matching.xor_exchange(6, 4)


class TestProperties:
    def test_matrix_roundtrip(self):
        m = Matching.shift(4, 1)
        matrix = m.matrix()
        assert matrix.shape == (4, 4)
        assert matrix.sum() == 4
        for src, dst in m:
            assert matrix[src, dst] == 1.0
        assert np.trace(matrix) == 0.0

    def test_shift_not_involution_for_large_n(self):
        assert not Matching.shift(5, 1).is_involution
        assert Matching.shift(4, 2).is_involution  # half-ring shift is

    def test_active_ranks(self):
        m = Matching(6, [(0, 3)])
        assert m.active_ranks == frozenset({0, 3})
        assert m.sources == frozenset({0})
        assert m.destinations == frozenset({3})

    def test_hash_and_equality(self):
        a = Matching.shift(8, 3)
        b = Matching(8, [(i, (i + 3) % 8) for i in range(8)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Matching.shift(8, 2)
        assert a != "not a matching"

    def test_identity_empty(self):
        m = Matching.identity(5)
        assert len(m) == 0
        assert not m.is_full

    def test_columns_pack_pairs(self):
        m = Matching(6, [(4, 1), (0, 3)])
        src, dst = m.columns
        assert src.dtype == dst.dtype == np.int64
        assert (src.tolist(), dst.tolist()) == ([0, 4], [3, 1])  # pairs order
        assert m.columns is m.columns  # materialized once
        for column in (src, dst):
            with pytest.raises(ValueError):
                column[0] = 2  # read-only: every reader shares the one array
        empty_src, empty_dst = Matching.identity(3).columns
        assert empty_src.shape == empty_dst.shape == (0,)
        assert empty_src.dtype == empty_dst.dtype == np.int64


class TestAlgebra:
    def test_compose_shifts(self):
        a = Matching.shift(6, 1)
        b = Matching.shift(6, 2)
        assert a.compose(b) == Matching.shift(6, 3)

    def test_compose_to_identity_drops_pairs(self):
        a = Matching.shift(6, 3)
        assert len(a.compose(a)) == 0  # shift 6 == identity

    def test_compose_dimension_mismatch(self):
        with pytest.raises(MatchingError):
            Matching.shift(4, 1).compose(Matching.shift(6, 1))

    def test_restricted_to(self):
        m = Matching.shift(6, 1)
        r = m.restricted_to({0, 1, 2})
        assert r.pairs == ((0, 1), (1, 2))

    def test_disjoint_union(self):
        a = Matching(6, [(0, 1)])
        b = Matching(6, [(2, 3)])
        u = a.disjoint_union(b)
        assert len(u) == 2

    def test_disjoint_union_conflict(self):
        a = Matching(6, [(0, 1)])
        b = Matching(6, [(0, 2)])
        with pytest.raises(MatchingError):
            a.disjoint_union(b)
