"""PodFabric construction, metadata plumbing, and the block theta path.

The hierarchical fabric is the scale story's foundation: these tests
pin its validation surface, the dict round-trip, the ``pods`` metadata
contract that everything downstream keys on, and the block solver's
work-avoidance accounting.  Exactness against the flat LP is pinned
separately in ``tests/differential/test_block_vs_flat.py`` and the
n=128 golden fixture.
"""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigurationError, FlowError, TopologyError
from repro.fabric.degradation import uniform_degradation
from repro.flows import (
    ThroughputCache,
    block_stats,
    commodities_from_matching,
    compute_theta,
    max_concurrent_flow,
    pod_structure,
    pod_theta,
    reset_block_stats,
    theta_tag,
)
from repro.matching import Matching
from repro.planner import plan
from repro.planner.scenario import Scenario
from repro.topology import CORE, PodFabric, pod_fabric, ring
from repro.units import Gbps

RATE = Gbps(800)


def flat_lp(topology, matching) -> float:
    return max_concurrent_flow(
        topology, commodities_from_matching(matching), RATE
    ).theta


def fabric(sizes=(8, 8), **kwargs) -> PodFabric:
    kwargs.setdefault("uplinks_per_pod", 2)
    return PodFabric(pod_sizes=tuple(sizes), bandwidth=RATE, **kwargs)


class TestPodFabricStructure:
    def test_counts_and_ranges(self):
        f = fabric((4, 6, 8))
        assert f.n == 18
        assert f.n_pods == 3
        assert f.ranges == ((0, 4), (4, 6), (10, 8))
        assert [f.pod_of(r) for r in (0, 3, 4, 9, 10, 17)] == [0, 0, 1, 1, 2, 2]
        with pytest.raises(TopologyError):
            f.pod_of(18)

    def test_flat_topology_carries_pod_metadata(self):
        topology = fabric((4, 6)).flat_topology()
        assert topology.metadata["family"] == "podfabric"
        assert topology.metadata["reference_rate"] == RATE
        structure = pod_structure(topology)
        assert structure is not None
        assert structure.ranges == ((0, 4), (4, 6))
        assert structure.core == CORE

    def test_uplink_edges_and_multipliers(self):
        f = fabric((4, 4), uplink_multipliers=(1.0, 0.5))
        edges = {(u, v): c for u, v, c in f.flat_topology().edges()}
        assert edges[(0, CORE)] == RATE
        assert edges[(4, CORE)] == pytest.approx(0.5 * RATE)
        assert f.multiplier(0) == 1.0 and f.multiplier(1) == 0.5

    def test_cut_off_pod_has_no_uplinks(self):
        f = fabric((4, 4), uplink_multipliers=(1.0, 0.0))
        uplinked = {
            u for u, v, _ in f.flat_topology().edges() if v == CORE
        }
        assert uplinked == {0, 1}

    def test_dict_round_trip(self):
        f = fabric(
            (4, 6),
            pod_family="full_mesh",
            uplink_bandwidth=RATE / 2,
            uplink_multipliers=(1.0, 0.25),
        )
        assert PodFabric.from_dict(f.to_dict()) == f

    def test_replace_revalidates(self):
        f = fabric((4, 4))
        assert f.replace(pod_sizes=(6, 6)).n == 12
        with pytest.raises(TopologyError):
            f.replace(uplinks_per_pod=99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pod_sizes": ()},
            {"pod_sizes": (4, 1)},
            {"pod_family": "star"},
            {"pod_family": "nope"},
            {"uplinks_per_pod": 0},
            {"uplinks_per_pod": 5, "pod_sizes": (4, 8)},
            {"uplink_multipliers": (1.0,)},
            {"uplink_multipliers": (1.0, 1.5)},
            {"uplink_bandwidth": 0.0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        base = {"pod_sizes": (4, 4), "bandwidth": RATE}
        with pytest.raises(TopologyError):
            PodFabric(**{**base, **kwargs})

    def test_pod_fabric_builder_splits_and_rejects(self):
        topology = pod_fabric(16, RATE, pods=2, uplinks_per_pod=2)
        assert pod_structure(topology).ranges == ((0, 8), (8, 8))
        topology = pod_fabric(10, RATE, pod_sizes=(4, 6), uplinks_per_pod=2)
        assert pod_structure(topology).ranges == ((0, 4), (4, 6))
        with pytest.raises(TopologyError):
            pod_fabric(10, RATE, pods=3)
        with pytest.raises(TopologyError):
            pod_fabric(10, RATE, pod_sizes=(4, 4))
        with pytest.raises(TopologyError):
            pod_fabric(10, RATE)

    def test_scenario_family_registration(self):
        scenario = Scenario.create(
            "allgather_ring",
            16,
            1 << 20,
            alpha=1e-5,
            delta=1e-6,
            reconfiguration_delay=1e-4,
            bandwidth=RATE,
            topology="podfabric",
            topology_options={"pods": 2, "uplinks_per_pod": 2},
        )
        assert pod_structure(scenario.build_topology()) is not None


class TestPodStructureParsing:
    def test_flat_topology_has_no_structure(self):
        assert pod_structure(ring(8, RATE)) is None

    def test_malformed_metadata_raises(self):
        from repro.topology.base import Topology

        base = ring(8, RATE)
        topology = Topology(
            8, list(base.edges()), metadata={"pods": {"ranges": "nope"}}
        )
        with pytest.raises(FlowError):
            pod_structure(topology)

    @pytest.mark.parametrize(
        "ranges, rank",
        [(((0, 4), (4, 4)), 9), (((2, 3), (5, 3)), 0), (((0, 3), (5, 3)), 4)],
        ids=["past-the-last-pod", "before-the-first-pod", "between-pods"],
    )
    def test_a_rank_outside_every_pod_is_refused(self, ranges, rank):
        from repro.flows.block import PodStructure, _partition_matching

        structure = PodStructure(ranges=ranges, core=CORE)
        with pytest.raises(FlowError, match=f"rank {rank} .*outside the pod"):
            _partition_matching(structure, Matching(10, [(ranges[0][0], rank)]))

    def test_degradation_preserves_pod_metadata(self):
        degraded = fabric((4, 4)).degraded(uniform_degradation(8, 0.8))
        structure = pod_structure(degraded)
        assert structure is not None
        assert structure.ranges == ((0, 4), (4, 4))


class TestBlockTheta:
    def test_flat_fallback_matches_lp_and_counts(self):
        topology = ring(8, RATE)
        matching = Matching.shift(8, 1)
        reset_block_stats()
        value = pod_theta(topology, matching, RATE)
        assert block_stats().flat_fallbacks == 1
        assert value == pytest.approx(flat_lp(topology, matching), rel=1e-9)

    def test_empty_matching_is_inf(self):
        topology = fabric((4, 4)).flat_topology()
        assert math.isinf(pod_theta(topology, Matching(8, []), RATE))

    def test_cut_off_pod_zeroes_inter_pod_demand(self):
        topology = fabric((4, 4), uplink_multipliers=(1.0, 0.0)).flat_topology()
        assert pod_theta(topology, Matching.shift(8, 4), RATE) == 0.0
        # Intra-pod traffic still flows inside the severed pod.
        intra = Matching(8, [(0, 1), (4, 5)])
        assert pod_theta(topology, intra, RATE) > 0.0

    def test_uniform_pattern_dedups_to_one_pod_solve(self):
        topology = fabric((4,) * 4).flat_topology()
        reset_block_stats()
        pod_theta(topology, Matching.shift(16, 1), RATE)
        stats = block_stats()
        # Equal pods with identical local commodities collapse onto one
        # LP (plus possibly the coarse problem); the rest are memo hits
        # or screened.
        assert stats.pod_solves <= 2
        assert stats.memo_hits + stats.pods_screened >= 2

    def test_compute_theta_prices_pods_and_caches(self):
        topology = fabric((4, 4)).flat_topology()
        matching = Matching.shift(8, 2)
        cache = ThroughputCache()
        reset_block_stats()
        first = compute_theta(topology, matching, RATE, cache=cache)
        assert block_stats().coarse_solves == 1
        second = compute_theta(topology, matching, RATE, cache=cache)
        assert first == second == pod_theta(topology, matching, RATE)
        assert cache.stats().hits >= 1

    def test_duplicate_rows_hit_the_cache(self):
        topology = fabric((4, 4)).flat_topology()
        rows = [Matching.shift(8, 1), Matching.shift(8, 2), Matching.shift(8, 1)]
        cache = ThroughputCache()
        values = [compute_theta(topology, m, RATE, cache=cache) for m in rows]
        assert values[0] == values[2]
        assert (cache.stats().misses, cache.stats().hits) == (2, 1)
        assert values[0] == pytest.approx(flat_lp(topology, rows[0]), rel=1e-9)


class TestEngineAndPlannerIntegration:
    def scenario(self, theta_method="auto"):
        return Scenario.create(
            "alltoall_pairwise_xor",
            16,
            1 << 20,
            alpha=1e-5,
            delta=1e-6,
            reconfiguration_delay=1e-4,
            bandwidth=RATE,
            topology="podfabric",
            topology_options={"pods": 2, "uplinks_per_pod": 2},
            theta_method=theta_method,
        )

    def test_block_priced_plan_matches_the_flat_lp_plan(self):
        scenario = self.scenario()
        topology = scenario.build_topology()
        # Seed a cache with flat-LP thetas under the exact tag: planning
        # from it is planning on the flat LP.
        flat_cache = ThroughputCache()
        for step in scenario.build_collective().steps:
            value = flat_lp(topology, step.matching)
            flat_cache.get_or_compute(
                topology, step.matching, lambda: value, tag=theta_tag(RATE)
            )
        seeded = flat_cache.stats().misses
        blocked = plan(scenario, cache=ThroughputCache())
        flat = plan(scenario, cache=flat_cache)
        assert flat_cache.stats().misses == seeded
        assert blocked.total_time == pytest.approx(flat.total_time, rel=1e-9)
        assert blocked.schedule == flat.schedule

    def test_block_solver_is_gone(self):
        with pytest.raises(ConfigurationError):
            plan(self.scenario(), solver="block")


class TestHealthCompositionOnPodFabrics:
    """FabricHealth.apply stacks cleanly on pod fabrics.

    Two invariants the delta machinery leans on: sequential applies
    never lose the ``pods`` metadata (or the original family) that
    :func:`pod_structure` keys on, and port-level degradation commutes
    with construction-time uplink health — dimming a rank then scaling
    its uplinks gives the same capacities as scaling then dimming.
    """

    @staticmethod
    def _health(draw, st, n):
        from repro.fabric.degradation import FabricHealth

        ranks = draw(
            st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=3)
        )
        values = draw(
            st.lists(
                st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                min_size=len(ranks),
                max_size=len(ranks),
            )
        )
        return FabricHealth(port_multipliers=tuple(zip(ranks, values)))

    def test_sequential_applies_preserve_pod_metadata(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(data=st.data())
        def run(data):
            sizes = tuple(
                data.draw(
                    st.lists(st.integers(3, 5), min_size=2, max_size=3)
                )
            )
            f = fabric(sizes)
            base = f.flat_topology()
            h1 = self._health(data.draw, st, f.n)
            h2 = self._health(data.draw, st, f.n)
            once = h1.apply(base)
            twice = h2.apply(once)
            for degraded in (once, twice):
                meta = degraded.metadata
                assert meta["pods"] == base.metadata["pods"]
                # A pristine overlay applies as a no-op and keeps
                # ``family``; a real one must carry ``base_family``.
                family = meta.get("base_family", meta.get("family"))
                assert family == "podfabric"
                assert meta["reference_rate"] == RATE
                assert pod_structure(degraded) == pod_structure(base)

        run()

    def test_port_health_commutes_with_uplink_multipliers(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(data=st.data())
        def run(data):
            sizes = tuple(
                data.draw(
                    st.lists(st.integers(3, 5), min_size=2, max_size=3)
                )
            )
            pristine = fabric(sizes)
            uplinks = tuple(
                data.draw(
                    st.lists(
                        st.sampled_from([0.25, 0.5, 1.0]),
                        min_size=len(sizes),
                        max_size=len(sizes),
                    )
                )
            )
            scaled = fabric(sizes, uplink_multipliers=uplinks)
            health = self._health(data.draw, st, pristine.n)
            reference = {
                (u, v): capacity
                for u, v, capacity in health.apply(
                    pristine.flat_topology()
                ).edges()
            }
            for u, v, capacity in health.apply(scaled.flat_topology()).edges():
                rank = v if u == CORE else u
                factor = (
                    uplinks[pristine.pod_of(rank)]
                    if CORE in (u, v)
                    else 1.0
                )
                expected = reference[(u, v)] * factor
                assert math.isclose(capacity, expected, rel_tol=1e-12), (
                    f"edge {(u, v)}: {capacity} != {expected} "
                    f"(uplinks={uplinks}, sizes={sizes})"
                )

        run()
