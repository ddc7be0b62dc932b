"""Cold ``max_concurrent_flow`` vs the warm-started family solver.

Both run the same column generation; the warm solver only starts a
known family member from its cached seed paths, so values, flows and
certificates are identical.  Values are still checked against the
certificate at the 1e-9 differential contract.  Families deliberately
mix the solver's two amortization cases: capacity perturbations
(degraded fabrics — same structure, warm member) and demand movement
(workload phases — same structure, new member).
"""

from __future__ import annotations

import pytest

from families import (
    RATE,
    agree,
    certified_theta,
    closed_form_families,
    degraded_variants,
    lp_only_families,
)
from repro.engine import compute_theta_backend
from repro.flows import (
    Commodity,
    ThroughputCache,
    WarmStartLPSolver,
    commodities_from_matching,
    compute_theta,
    default_warm_solver,
    max_concurrent_flow,
)
from repro.matching import Matching
from repro.topology import ring


class TestWarmAgreesWithCold:
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "families", [closed_form_families, lp_only_families]
    )
    def test_every_family_row(self, families):
        solver = WarmStartLPSolver()
        for topology, patterns in families(8):
            for matching in patterns:
                cold = certified_theta(topology, commodities_from_matching(matching))
                warm = solver.solve_matching(topology, matching, RATE)
                assert agree(cold, warm), (topology.name, matching)

    def test_degraded_fabrics_are_warm_capacity_perturbations(self):
        n = 8
        solver = WarmStartLPSolver()
        pristine = ring(n, RATE)
        matching = Matching.shift(n, 3)
        thetas = []
        for health, topology in degraded_variants(pristine, n):
            cold = certified_theta(topology, commodities_from_matching(matching))
            warm = solver.solve_matching(topology, matching, RATE)
            assert agree(cold, warm), health
            thetas.append(warm)
        stats = solver.stats()
        # Dimmed variants keep every lane: one family, warm re-solves.
        # The lane-removing variant gets its own family.
        assert stats.families == 2
        assert stats.warm_solves >= 2
        # Degradation must actually change the answers we compared.
        assert len(set(thetas)) >= 3

    def test_workload_phases_share_one_family(self):
        n = 8
        solver = WarmStartLPSolver()
        topology = ring(n, RATE)
        # Adjacent phases: same fabric, different full permutations.
        phases = [Matching.shift(n, k) for k in (1, 2, 3, 5, 7)]
        for matching in phases:
            cold = certified_theta(topology, commodities_from_matching(matching))
            assert agree(cold, solver.solve_matching(topology, matching, RATE))
        assert solver.stats().families == 1
        assert solver.stats().members == len(phases)

    def test_repeat_solves_are_warm_and_identical(self):
        n = 8
        solver = WarmStartLPSolver()
        topology = ring(n, RATE)
        matching = Matching.shift(n, 2)
        first = solver.solve_matching(topology, matching, RATE)
        again = solver.solve_matching(topology, matching, RATE)
        assert first == again
        stats = solver.stats()
        assert stats.cold_solves == 1
        assert stats.warm_solves == 1

    def test_return_flows_parity(self):
        n = 6
        topology = ring(n, RATE)
        commodities = commodities_from_matching(Matching.shift(n, 2))
        cold = max_concurrent_flow(
            topology, commodities, RATE, return_flows=True
        )
        warm = WarmStartLPSolver().solve(
            topology, commodities, RATE, return_flows=True
        )
        assert agree(cold.theta, warm.theta)
        assert cold.edge_flows == warm.edge_flows

    def test_screens_match_cold_path(self):
        from repro.topology import matched_topology

        n = 6
        topology = ring(n, RATE)
        solver = WarmStartLPSolver()
        empty = solver.solve(topology, (), RATE)
        assert empty.theta == float("inf")
        assert solver.solve_matching(
            topology, Matching(n, []), RATE
        ) == float("inf")
        # Disconnected commodity: a sparse matched fabric has no route
        # between the pairs, so both solvers must screen to 0.0.
        sparse = matched_topology(Matching(4, [(0, 1), (2, 3)]), RATE)
        commodities = (Commodity(0, 2),)
        assert max_concurrent_flow(sparse, commodities, RATE).theta == 0.0
        assert solver.solve(sparse, commodities, RATE).theta == 0.0

    def test_mixed_demands_match(self):
        n = 6
        topology = ring(n, RATE)
        commodities = (
            Commodity(0, 3, 1.0),
            Commodity(1, 4, 0.25),
            Commodity(5, 2, 2.5),
        )
        cold = certified_theta(topology, commodities)
        warm = WarmStartLPSolver().solve(topology, commodities, RATE).theta
        assert agree(cold, warm)


class TestMethodAndBackendRouting:
    def test_compute_theta_lp_warm_equals_lp(self):
        for topology, patterns in lp_only_families(8):
            for matching in patterns:
                lp = compute_theta(
                    topology, matching, RATE, method="lp", cache=None
                )
                warm = compute_theta(
                    topology, matching, RATE, method="lp-warm", cache=None
                )
                assert agree(lp, warm), (topology.name, matching)

    def test_exact_lp_warm_backend_registered_and_agrees(self):
        topology = ring(8, RATE)
        matching = Matching.shift(8, 3)
        lp = compute_theta_backend(
            topology, matching, RATE, backend="exact-lp", cache=ThroughputCache()
        )
        warm = compute_theta_backend(
            topology,
            matching,
            RATE,
            backend="exact-lp-warm",
            cache=ThroughputCache(),
        )
        assert agree(lp, warm)

    def test_cache_tags_keep_methods_apart(self):
        cache = ThroughputCache()
        topology = ring(8, RATE)
        matching = Matching.shift(8, 1)
        compute_theta(topology, matching, RATE, method="lp", cache=cache)
        compute_theta(topology, matching, RATE, method="lp-warm", cache=cache)
        # Distinct estimator tags: the second method may not reuse the
        # first's entry even though the values are equal.
        assert cache.stats().misses == 2

    def test_default_warm_solver_is_shared(self):
        assert default_warm_solver() is default_warm_solver()


class TestMemberEviction:
    def test_lru_bounds_hold_and_values_survive_eviction(self):
        n = 6
        solver = WarmStartLPSolver(max_families=2, max_members=2)
        topology = ring(n, RATE)
        matchings = [Matching.shift(n, k) for k in (1, 2, 3, 4, 5)]
        expected = {
            m: max_concurrent_flow(
                topology, commodities_from_matching(m), RATE
            ).theta
            for m in matchings
        }
        for _ in range(2):
            for m in matchings:
                assert agree(solver.solve_matching(topology, m, RATE), expected[m])
        assert solver.stats().members <= 2


class TestSeedReuse:
    def test_warm_resolves_equal_cold_solves_exactly(self):
        n = 8
        solver = WarmStartLPSolver()
        commodities = commodities_from_matching(Matching.shift(n, 3))
        for health, degraded in degraded_variants(ring(n, RATE), n):
            cold = max_concurrent_flow(
                degraded, commodities, RATE, return_flows=True
            )
            warm = solver.solve(degraded, commodities, RATE, return_flows=True)
            assert warm == cold, health
        assert solver.stats().warm_solves >= 2

    def test_warm_resolve_skips_the_seed_searches(self, monkeypatch):
        import repro.flows.concurrent_flow as cf
        from repro.fabric.degradation import uniform_degradation

        calls = []
        search = cf.dijkstra

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(cf, "dijkstra", counted)
        n = 8
        solver = WarmStartLPSolver()
        matching = Matching.shift(n, 3)
        pristine = ring(n, RATE)
        solver.solve_matching(pristine, matching, RATE)
        cold_searches = len(calls)
        del calls[:]
        dimmed = uniform_degradation(n, 0.8).apply(pristine)
        solver.solve_matching(dimmed, matching, RATE)
        assert solver.stats().warm_solves == 1
        # Cold also runs the seed searches: the hop-shortest pass and
        # one more per commodity for its second direction.
        assert len(calls) <= cold_searches - (n + 1)
