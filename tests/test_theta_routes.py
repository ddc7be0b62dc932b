"""The one exact theta route, and the bounds envelope beside it.

``compute_theta`` prices exact theta one way (``method="auto"``): the
closed form when a formula exists, else the blockwise decomposition on
pod fabrics, else the certified LP.  These tests pin that the route
agrees with the LP and the closed forms at 1e-9 on the structured
(topology, pattern) pairs that have formulas — rings, hypercubes,
matched fabrics at n in {8, 16} — that the ``sp``/``proxy`` envelope
brackets the exact value everywhere, that the former exact spellings
are gone from the flows layer, and that a pod fabric has one cache
entry per pattern however its scenario spells the exact method.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import ThetaEnvelope, plan_many, theta_envelope
from repro.exceptions import FlowError
from repro.flows import (
    ThroughputCache,
    block_stats,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    reset_block_stats,
    try_closed_form_theta,
    verify_certificate,
)
from repro.flows.block import _clear_block_memos
from repro.matching import Matching
from repro.planner import Scenario
from repro.topology import PodFabric, hypercube, ring
from repro.topology.matched import matched_topology
from repro.units import Gbps

B = Gbps(800)

#: Exact-route agreement tolerance.
RTOL = 1e-9


def _lp(topology, matching, rate=None):
    rate = topology.metadata["reference_rate"] if rate is None else rate
    return max_concurrent_flow(
        topology, commodities_from_matching(matching), rate
    ).theta


def _ring_cases(n):
    topology = ring(n, B, bidirectional=True)
    uni = ring(n, B, bidirectional=False)
    for k in (1, 2, n // 2, n - 1):
        yield topology, Matching.shift(n, k)
        yield uni, Matching.shift(n, k)


def _hypercube_cases(n):
    topology = hypercube(n, B)
    distance = 1
    while distance < n:
        yield topology, Matching.from_permutation(
            [i ^ distance for i in range(n)]
        )
        distance *= 2


def _matched_cases(n):
    matching = Matching.shift(n, 3 % n or 1)
    yield matched_topology(matching, B), matching


def _all_cases():
    for n in (8, 16):
        yield from _ring_cases(n)
        yield from _hypercube_cases(n)
        yield from _matched_cases(n)


CASES = list(_all_cases())


class TestExactRoute:
    @pytest.mark.parametrize(
        "topology, matching",
        CASES,
        ids=[f"{t.name}-case{i}" for i, (t, _) in enumerate(CASES)],
    )
    def test_closed_form_matches_exact_lp(self, topology, matching):
        exact = _lp(topology, matching)
        closed = try_closed_form_theta(topology, matching)
        assert math.isclose(closed, exact, rel_tol=RTOL), (
            f"{topology.name}: closed form {closed} vs exact LP {exact}"
        )
        assert compute_theta(topology, matching, cache=None) == closed

    @pytest.mark.parametrize(
        "topology, matching",
        CASES,
        ids=[f"{t.name}-case{i}" for i, (t, _) in enumerate(CASES)],
    )
    def test_bounds_bracket_exact_value(self, topology, matching):
        exact = _lp(topology, matching)
        envelope = theta_envelope(topology, matching, cache=None)
        assert envelope.lower <= envelope.upper + RTOL
        assert envelope.brackets(exact), (
            f"{topology.name}: {envelope} does not bracket {exact}"
        )

    def test_reference_rate_is_part_of_the_cache_identity(self):
        """Theta scales with capacity/reference_rate; evaluating one
        pattern under two normalizations through a shared cache must
        not serve the first rate's value for the second."""
        topology = ring(8, B)
        matching = Matching.shift(8, 1)
        cache = ThroughputCache()
        full = compute_theta(topology, matching, reference_rate=B, cache=cache)
        half = compute_theta(
            topology, matching, reference_rate=B / 2, cache=cache
        )
        assert math.isclose(half, 2 * full, rel_tol=1e-9)
        assert math.isclose(half, _lp(topology, matching, B / 2), rel_tol=RTOL)
        assert cache.stats().misses == 2
        uncached = [
            compute_theta(topology, matching, reference_rate=rate, cache=None)
            for rate in (B, B / 2)
        ]
        assert uncached == [full, half]

    @pytest.mark.parametrize(
        "topology, matching",
        CASES[::5],
        ids=[f"{t.name}-case{5 * i}" for i, (t, _) in enumerate(CASES[::5])],
    )
    def test_scaled_fabric_scales_exact_theta(self, topology, matching):
        doubled = topology.scaled(2.0)
        exact = compute_theta(doubled, matching, B, cache=None)
        assert math.isclose(exact, _lp(doubled, matching, B), rel_tol=RTOL)
        assert math.isclose(
            exact, 2 * compute_theta(topology, matching, B, cache=None), rel_tol=RTOL
        )

    def test_proxy_is_the_envelope_upper_edge(self):
        topology = ring(8, B)
        matching = Matching.shift(8, 3)
        envelope = theta_envelope(topology, matching, cache=None)
        assert compute_theta(
            topology, matching, method="proxy", cache=None
        ) == envelope.upper

    @pytest.mark.parametrize("method", ["lp", "lp-warm", "block", "closed"])
    def test_former_exact_spellings_are_rejected(self, method):
        topology = ring(8, B)
        with pytest.raises(FlowError, match="unknown theta method"):
            compute_theta(topology, Matching.shift(8, 1), method=method)


class TestThetaEnvelope:
    def test_brackets_with_slack(self):
        envelope = ThetaEnvelope(lower=0.25, upper=0.5)
        assert envelope.brackets(0.25)
        assert envelope.brackets(0.5 + 1e-12)
        assert not envelope.brackets(0.6)
        assert envelope.width == 0.25

    def test_infinite_envelope(self):
        envelope = ThetaEnvelope(lower=math.inf, upper=math.inf)
        assert envelope.brackets(math.inf)
        assert envelope.width == 0.0


METHODS = ("auto", "sp", "proxy")


class TestEdgeCases:
    """The corners every method shares: empty matchings, single-node
    fabrics, fully-failed ports, and reference-rate extremes."""

    @pytest.mark.parametrize("method", METHODS)
    def test_empty_matching_is_infinite_everywhere(self, method):
        topology = ring(8, B)
        value = compute_theta(
            topology, Matching(8, []), B, method=method, cache=None
        )
        assert math.isinf(value) and value > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_single_node_topology_has_nothing_to_route(self, method):
        from repro.topology import Topology

        single = Topology(1, [], name="single")
        value = compute_theta(
            single, Matching(1, []), B, method=method, cache=None
        )
        assert math.isinf(value)

    @pytest.mark.parametrize("method", METHODS)
    def test_fully_failed_ports_zero_out_theta(self, method):
        from repro.fabric import FabricHealth

        n = 4
        lanes = tuple((r, (r + 1) % n) for r in range(n))
        dead = FabricHealth(
            failed_transceivers=lanes + tuple((b, a) for a, b in lanes),
            name="dead-fabric",
        )
        topology = dead.apply(ring(n, B))
        assert topology.num_edges == 0
        matching = Matching.shift(n, 1)
        value = compute_theta(topology, matching, B, method=method, cache=None)
        assert value == 0.0
        assert _lp(topology, matching, B) == 0.0

    @pytest.mark.parametrize("fabric", ["ring", "pods", "mesh"])
    @pytest.mark.parametrize("rate", [1e-6, 1.0, 1e12])
    def test_reference_rate_corners_agree_with_the_lp(self, rate, fabric):
        # Tiny, unit and huge rates, each the fabric's own, on a fabric
        # per exact route: closed form, pod blocks, LP.
        from repro.topology import full_mesh

        if fabric == "ring":
            topology = ring(8, rate)
        elif fabric == "pods":
            topology = PodFabric(
                pod_sizes=(4, 4), bandwidth=rate, uplinks_per_pod=2
            ).flat_topology()
        else:
            topology = full_mesh(8, rate)
        matching = Matching.shift(8, 3)
        exact = compute_theta(topology, matching, rate, cache=None)
        assert math.isclose(
            exact, _lp(topology, matching, rate), rel_tol=RTOL, abs_tol=0.0
        )
        # The envelope still brackets the exact value at every corner.
        upper = compute_theta(topology, matching, rate, method="proxy", cache=None)
        assert upper >= exact - RTOL

    @pytest.mark.parametrize("method", METHODS)
    def test_compute_theta_prices_empty_and_mixed_rows(self, method):
        topology = ring(8, B)
        assert math.isinf(
            compute_theta(topology, Matching(8, []), B, method=method, cache=None)
        )
        for matching in (Matching.shift(8, 1), Matching(8, [(0, 5)])):
            value = compute_theta(topology, matching, B, method=method, cache=None)
            assert value > 0
            if method == "auto":
                assert math.isclose(
                    value, _lp(topology, matching, B), rel_tol=RTOL, abs_tol=RTOL
                )


SPELLINGS = ("auto", "lp", "lp-warm", "block")


def _pod_scenario(theta_method: str, **kwargs) -> Scenario:
    kwargs.setdefault("reconfiguration_delay", 1e-4)
    return Scenario.create(
        kwargs.pop("algorithm", "alltoall_pairwise_xor"),
        16,
        1 << 20,
        alpha=1e-5,
        delta=1e-6,
        bandwidth=B,
        topology="podfabric",
        topology_options={"pods": 2, "uplinks_per_pod": 2},
        theta_method=theta_method,
        **kwargs,
    )


class TestOneCacheEntryOnPodFabrics:
    """Every exact spelling of a pod scenario is one scenario, priced by
    pod blocks under one cache tag."""

    def test_exact_spellings_share_one_fingerprint(self):
        scenarios = [_pod_scenario(spelling) for spelling in SPELLINGS]
        assert {s.theta_method for s in scenarios} == {"auto"}
        assert len({s.fingerprint() for s in scenarios}) == 1
        assert Scenario.from_dict(scenarios[0].to_dict()) == scenarios[0]

    @pytest.mark.parametrize("spelling", ["lp", "lp-warm", "block"])
    def test_stored_dicts_load_former_spellings_as_auto(self, spelling):
        """Scenario dicts written before the exact spellings merged
        (and clients that still send them) load as ``auto``."""
        exact = _pod_scenario("auto")
        loaded = Scenario.from_dict({**exact.to_dict(), "theta_method": spelling})
        assert loaded.theta_method == "auto"
        assert loaded == exact
        assert loaded.fingerprint() == exact.fingerprint()

    def test_closed_is_rejected(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown theta method"):
            _pod_scenario("closed")

    def test_only_the_first_spelling_misses(self):
        cache = ThroughputCache()
        misses = []
        for spelling in SPELLINGS:
            before = cache.stats().misses
            plan_many([_pod_scenario(spelling)], cache=cache)
            misses.append(cache.stats().misses - before)
        assert misses[0] > 0
        assert misses[1:] == [0, 0, 0]

    def test_exact_theta_prices_pod_blocks_and_matches_the_lp(self):
        topology = PodFabric(
            pod_sizes=(8, 8), bandwidth=B, uplinks_per_pod=2
        ).flat_topology()
        matching = Matching.shift(16, 3)
        _clear_block_memos()
        reset_block_stats()
        value = compute_theta(topology, matching, B, cache=None)
        assert block_stats().pod_solves > 0
        commodities = commodities_from_matching(matching)
        flat = max_concurrent_flow(topology, commodities, B)
        assert math.isclose(value, flat.theta, rel_tol=RTOL)
        lo, hi = verify_certificate(topology, commodities, B, flat.certificate)
        assert lo <= value * (1 + RTOL) and value <= hi * (1 + RTOL)
        assert hi - lo <= RTOL * lo

    def test_simulating_a_pod_plan_reuses_its_theta(self, monkeypatch):
        """A 2-pod n=16 allreduce at alpha_r = 1 ms plans every step on
        the base fabric; simulating it reads the planner's theta values
        (no new misses) and runs the sim-equals-model check."""
        import repro.sim.executor as executor
        from repro.planner import plan
        from repro.sim import simulate_plan

        cache = ThroughputCache()
        planned = plan(
            _pod_scenario(
                "block",
                algorithm="allreduce_recursive_doubling",
                reconfiguration_delay=1e-3,
            ),
            cache=cache,
        )
        assert set(planned.decisions) == {"base"}
        before = cache.stats().misses
        result = simulate_plan(planned, cache=cache)
        assert cache.stats().misses == before
        assert math.isclose(
            result.sim_time, planned.total_time, rel_tol=1e-9
        )
        # A negative tolerance fails any model check that runs.
        monkeypatch.setattr(executor, "_MODEL_RTOL", -1.0)
        with pytest.raises(Exception, match="diverged"):
            simulate_plan(planned, cache=cache)
