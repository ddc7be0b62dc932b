"""Scalar vs vectorized closed forms, over generated families.

The batch kernels must be *pointwise indistinguishable* from the scalar
path: ``nan`` exactly where the scalar detector returns ``None``,
``inf`` exactly on empty matchings, and the same IEEE value everywhere a
formula applies.  ``theta_batch`` must then agree with per-call
``compute_theta`` on every row — including the rows that fall back to
the LP.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from families import (
    RATE,
    TOL,
    agree,
    closed_form_families,
    degraded_variants,
    lp_only_families,
)
from repro.flows import (
    ThroughputCache,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    theta_batch,
)
from repro.flows.closed_forms import (
    closed_form_theta_batch,
    detect_uniform_shift,
    detect_uniform_shift_batch,
    matchings_to_dst_array,
    try_closed_form_theta,
)
from repro.topology import ring


class TestBatchKernelsMatchScalar:
    @pytest.mark.parametrize(
        "family_index", range(len(closed_form_families()))
    )
    def test_batch_values_bitwise_equal_scalar(self, family_index):
        topology, patterns = closed_form_families()[family_index]
        batch = closed_form_theta_batch(topology, patterns)
        for matching, value in zip(patterns, batch):
            scalar = try_closed_form_theta(topology, matching)
            if scalar is None:
                assert math.isnan(value), (topology.name, matching)
            else:
                # Same IEEE operations elementwise: exact equality.
                assert value == scalar, (topology.name, matching)

    def test_shift_detector_batch_equals_scalar(self):
        n = 16
        _, patterns = closed_form_families(n)[0]
        dst = matchings_to_dst_array(patterns, n)
        shifts = detect_uniform_shift_batch(dst)
        for matching, k in zip(patterns, shifts):
            scalar = detect_uniform_shift(matching)
            assert (scalar or 0) == int(k)

    def test_degraded_topologies_never_take_the_closed_form(self):
        n = 8
        pristine = ring(n, RATE)
        for health, topology in degraded_variants(pristine, n):
            if health is None:
                continue
            _, patterns = closed_form_families(n)[0]
            batch = closed_form_theta_batch(topology, patterns[: n - 1])
            assert np.isnan(batch).all(), health.name


class TestThetaBatchMatchesComputeTheta:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "families", [closed_form_families, lp_only_families]
    )
    def test_uncached_rows_agree(self, families):
        for topology, patterns in families():
            batch = theta_batch(
                topology, patterns, reference_rate=RATE, cache=None
            )
            for matching, value in zip(patterns, batch):
                scalar = compute_theta(topology, matching, RATE, cache=None)
                assert agree(value, scalar), (topology.name, matching)

    def test_mixed_topologies_in_one_call(self):
        rows = []
        for topology, patterns in closed_form_families(8):
            rows += [(topology, m) for m in patterns[:4]]
        topologies = [t for t, _ in rows]
        matchings = [m for _, m in rows]
        batch = theta_batch(topologies, matchings, RATE, cache=None)
        for (topology, matching), value in zip(rows, batch):
            assert agree(
                value, compute_theta(topology, matching, RATE, cache=None)
            )

    def test_per_row_rates(self):
        n = 8
        topology = ring(n, RATE)
        patterns = [m for m in closed_form_families(n)[0][1] if len(m)][:5]
        rates = [RATE * (i + 1) for i in range(len(patterns))]
        batch = theta_batch(topology, patterns, rates, cache=None)
        for matching, rate, value in zip(patterns, rates, batch):
            assert agree(value, compute_theta(topology, matching, rate, cache=None))

    def test_batch_publishes_the_scalar_cache_keys(self):
        n = 16
        topology, patterns = closed_form_families(n)[0]
        shifts = [m for m in patterns if detect_uniform_shift(m)]
        cache = ThroughputCache()
        theta_batch(topology, shifts, RATE, cache=cache)
        warmed = cache.stats()
        assert warmed.misses == len(set(shifts))
        # The scalar path must now be served entirely from cache.
        for matching in shifts:
            compute_theta(topology, matching, RATE, cache=cache)
        after = cache.stats()
        assert after.misses == warmed.misses
        assert after.hits >= len(shifts)


class TestCachedBatchEntryPoint:
    def test_cached_batch_agrees_with_scalar(self):
        for topology, patterns in closed_form_families(8):
            cache = ThroughputCache()
            many = theta_batch(topology, patterns, RATE, cache=cache)
            for matching, value in zip(patterns, many):
                scalar = compute_theta(
                    topology, matching, RATE, cache=ThroughputCache()
                )
                assert agree(value, scalar), (topology.name, matching)

    def test_lp_only_rows_agree_with_the_lp(self):
        topology, patterns = lp_only_families(6)[0]
        many = theta_batch(topology, patterns, RATE, cache=None)
        for matching, value in zip(patterns, many):
            lp = max_concurrent_flow(
                topology, commodities_from_matching(matching), RATE
            ).theta
            assert agree(value, lp)
