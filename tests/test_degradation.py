"""The fault & heterogeneity layer, end to end.

Covers the whole degraded-fabric path the tentpole threads through the
library: :class:`~repro.fabric.FabricHealth` semantics and round-trips,
cache-key separation (degraded and pristine fabrics must never share a
theta entry), planner pricing (including the fault-avoiding ``avoid``
solver), the issue's acceptance invariant (one failed transceiver at
n=16 makes both the planned *and* simulated completion time strictly
longer), mid-run fault injection, the ``faulty`` workload transformer,
the degradation experiment grid, and its golden n=16 fixture
(regenerate with ``REPRO_REGEN_GOLDEN=1``).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.engine import plan_many
from repro.exceptions import ConfigurationError, FabricError
from repro.fabric import (
    PRISTINE,
    FabricHealth,
    FaultEvent,
    hotspot,
    random_failures,
    uniform_degradation,
)
from repro.flows import ThroughputCache, compute_theta
from repro.matching import Matching
from repro.planner import PlanRequest, Scenario, available_solvers, plan
from repro.sim import simulate_plan, simulate_workload
from repro.analysis.adaptivity import compare_policies
from repro.experiments.degradation import (
    default_conditions,
    degradation_base_scenario,
    run_degradation_grid,
)
from repro.experiments.config import small_config
from repro.topology import ring
from repro.units import Gbps, MiB, ns, us
from repro.workload import faulty, plan_workload, steady_trace

N = 16


def scenario16(alpha_r=us(1000), message=MiB(4), algorithm="allreduce_ring", **kwargs):
    """A base scenario whose optimum stays on the (degradable) ring."""
    return Scenario.create(
        algorithm,
        n=N,
        message_size=message,
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=alpha_r,
        **kwargs,
    )


# -- FabricHealth semantics ---------------------------------------------------


class TestFabricHealth:
    def test_round_trip_through_dicts(self):
        health = FabricHealth(
            port_multipliers=((3, 0.5), (7, 0.9)),
            failed_transceivers=((1, 2),),
            dead_wavelengths=1,
            total_wavelengths=4,
            name="mixed",
        )
        data = health.to_dict()
        assert json.loads(json.dumps(data)) == data  # JSON-serializable
        assert FabricHealth.from_dict(data) == health

    def test_pristine_round_trip_and_normalization(self):
        assert FabricHealth.from_dict({}) == FabricHealth()
        assert PRISTINE.is_pristine
        # multipliers of exactly 1.0 are dropped, so "degraded to 1.0"
        # and "not degraded" are one condition
        assert FabricHealth(port_multipliers=((2, 1.0),)).is_pristine

    def test_unknown_keys_rejected(self):
        with pytest.raises(FabricError, match="unknown fabric health keys"):
            FabricHealth.from_dict({"failed_ports": [[0, 1]]})

    def test_validation(self):
        with pytest.raises(FabricError):
            FabricHealth(port_multipliers=((0, 0.0),))  # zero rate
        with pytest.raises(FabricError):
            FabricHealth(port_multipliers=((0, 1.5),))  # above nominal
        with pytest.raises(FabricError):
            FabricHealth(failed_transceivers=((3, 3),))  # self-loop
        with pytest.raises(FabricError):
            FabricHealth(dead_wavelengths=4, total_wavelengths=4)  # all dead
        with pytest.raises(FabricError):
            FabricHealth(port_multipliers=((5, 0.5),)).validate_for(4)

    def test_hashable_and_canonical(self):
        a = FabricHealth(port_multipliers=((7, 0.9), (3, 0.5)))
        b = FabricHealth(port_multipliers={3: 0.5, 7: 0.9})
        assert a == b and hash(a) == hash(b)
        assert a.fingerprint() == b.fingerprint()

    def test_multiplier_queries(self):
        health = FabricHealth(
            port_multipliers=((1, 0.5),), dead_wavelengths=1, total_wavelengths=2
        )
        assert health.multiplier(1) == 0.5
        assert health.multiplier(0) == 1.0
        assert health.pair_multiplier(0, 1) == pytest.approx(0.25)
        matching = Matching(4, [(0, 1), (2, 3)])
        assert health.matched_multiplier(matching) == pytest.approx(0.25)

    def test_apply_scales_removes_and_strips_closed_forms(self, ring16):
        health = FabricHealth(
            port_multipliers=((0, 0.5),), failed_transceivers=((3, 4),)
        )
        degraded = health.apply(ring16)
        assert not degraded.has_edge(3, 4)
        assert degraded.has_edge(4, 3)
        # both directions incident to rank 0 run at half rate
        assert degraded.capacity(0, 1) == pytest.approx(ring16.capacity(0, 1) / 2)
        assert degraded.capacity(15, 0) == pytest.approx(
            ring16.capacity(15, 0) / 2
        )
        # untouched links keep their rate
        assert degraded.capacity(8, 9) == ring16.capacity(8, 9)
        # closed-form family metadata is gone; the reference rate stays
        assert "family" not in degraded.metadata
        assert degraded.metadata["reference_rate"] == Gbps(800)
        assert degraded.fingerprint() != ring16.fingerprint()

    def test_apply_pristine_is_identity(self, ring16):
        assert PRISTINE.apply(ring16) is ring16

    def test_apply_rejects_unknown_lane(self, ring16):
        with pytest.raises(FabricError, match="names no lane"):
            FabricHealth(failed_transceivers=((0, 5),)).apply(ring16)

    def test_generators_deterministic(self):
        assert random_failures(N, seed=3, failures=2, dim_fraction=0.5) == (
            random_failures(N, seed=3, failures=2, dim_fraction=0.5)
        )
        assert random_failures(N, seed=3) != random_failures(N, seed=4)
        assert uniform_degradation(4, 0.7).port_multipliers == (
            (0, 0.7), (1, 0.7), (2, 0.7), (3, 0.7)
        )
        assert hotspot(8, center=0, radius=1, severity=0.5).port_multipliers == (
            (0, 0.5), (1, 0.5), (7, 0.5)
        )

    def test_compose_is_multiplicative(self):
        standing = FabricHealth(
            port_multipliers=((0, 0.5),), dead_wavelengths=1, total_wavelengths=2
        )
        incoming = FabricHealth(
            port_multipliers=((0, 0.5), (1, 0.8)),
            failed_transceivers=((2, 3),),
            dead_wavelengths=1,
            total_wavelengths=4,
        )
        combined = standing.compose(incoming)
        assert combined.multiplier(0) == pytest.approx(0.25)
        assert combined.multiplier(1) == pytest.approx(0.8)
        assert combined.failed_transceivers == ((2, 3),)
        # wavelength factors multiply exactly: 0.5 * 0.75 = 0.375
        assert combined.wavelength_factor == pytest.approx(0.375)

    def test_unhealthy_ranks(self):
        health = FabricHealth(
            port_multipliers=((2, 0.9),), failed_transceivers=((5, 6),)
        )
        assert health.unhealthy_ranks() == frozenset({2, 5, 6})
        assert health.unhealthy_ranks(min_health=0.8) == frozenset({5, 6})


# -- cache-key separation -----------------------------------------------------


class TestCacheSeparation:
    def test_degraded_and_pristine_never_share_a_theta_entry(self, ring16):
        health = uniform_degradation(N, 0.5)
        degraded = health.apply(ring16)
        matching = Matching(N, [(i, (i + 1) % N) for i in range(N)])
        cache = ThroughputCache()
        pristine_theta = compute_theta(ring16, matching, Gbps(800), cache=cache)
        degraded_theta = compute_theta(degraded, matching, Gbps(800), cache=cache)
        stats = cache.stats()
        assert stats.misses == 2 and stats.size == 2  # two distinct entries
        assert degraded_theta == pytest.approx(pristine_theta / 2)

    def test_scenario_step_costs_memo_separates_health(self):
        cache = ThroughputCache()
        base = scenario16()
        degraded = base.replace(health=uniform_degradation(N, 0.5))
        pristine_costs = base.step_costs(cache=cache)
        degraded_costs = degraded.step_costs(cache=cache)
        assert pristine_costs is not degraded_costs
        assert degraded_costs[0].theta < pristine_costs[0].theta
        # and the memo still deduplicates repeated lookups
        assert degraded.step_costs(cache=cache) is degraded_costs

    def test_pristine_health_normalizes_to_none(self):
        assert scenario16(health=PRISTINE) == scenario16()
        assert scenario16(health=PRISTINE).health is None

    def test_scenario_round_trip_with_health(self):
        degraded = scenario16(health=random_failures(N, seed=5, dim_fraction=0.5))
        data = degraded.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert Scenario.from_dict(data) == degraded
        assert Scenario.from_dict(scenario16().to_dict()).health is None

    def test_health_rejected_for_multiport(self):
        with pytest.raises(ConfigurationError, match="single-port"):
            scenario16(algorithm="alltoall").replace(
                multiport_radix=2, health=uniform_degradation(N, 0.5)
            )


# -- the acceptance invariant -------------------------------------------------


class TestDegradedSlower:
    def test_one_failed_transceiver_strictly_slower_planned_and_simulated(self):
        """The issue's acceptance criterion, verbatim: one failed
        transceiver at n=16, identical scenario parameters."""
        cache = ThroughputCache()
        base = scenario16()
        degraded = base.replace(health=random_failures(N, seed=7, failures=1))
        planned = {s: plan(s, cache=cache) for s in (base, degraded)}
        assert planned[degraded].total_time > planned[base].total_time
        simulated = {
            s: simulate_plan(planned[s], cache=cache) for s in (base, degraded)
        }
        assert simulated[degraded].sim_time > simulated[base].sim_time
        # the sim-equals-model anchor held on both fabrics (simulate_plan
        # would have raised otherwise); assert it explicitly anyway
        for result in simulated.values():
            assert result.model_error < 1e-9

    def test_dimmed_fabric_slows_matched_steps_too(self):
        # alpha_r ~ 0 makes the optimum all-matched: the slowdown must
        # come from the degraded circuit rate, not theta
        cache = ThroughputCache()
        base = scenario16(alpha_r=ns(1), algorithm="allreduce_recursive_doubling")
        degraded = base.replace(health=uniform_degradation(N, 0.5))
        fast = plan(base, cache=cache)
        slow = plan(degraded, cache=cache)
        assert fast.schedule.is_always_reconfigure()
        assert slow.total_time > fast.total_time
        sim = simulate_plan(slow, cache=cache)
        assert sim.model_error < 1e-9

    def test_avoid_solver_plans_around_failed_ports(self):
        cache = ThroughputCache()
        # small messages + tiny alpha_r: dp wants matched steps even
        # through the failure; avoid must keep unhealthy ports on base
        health = random_failures(N, seed=7, failures=1)
        degraded = scenario16(
            alpha_r=ns(1),
            message=MiB(1),
            algorithm="allreduce_recursive_doubling",
            health=health,
        )
        unhealthy = health.unhealthy_ranks()
        dp = plan(degraded, cache=cache)
        avoided = plan(degraded, solver="avoid", cache=cache)
        costs = degraded.step_costs(cache=cache)
        for cost, decision in zip(costs, avoided.decisions):
            touches = any(
                src in unhealthy or dst in unhealthy for src, dst in cost.matching
            )
            if touches:
                assert decision == "base"
        # dp is unconstrained, so it lower-bounds avoid…
        assert dp.total_time <= avoided.total_time
        # …and on this scenario the constraint actually binds
        assert avoided.decisions != dp.decisions
        # on a pristine fabric, avoid degenerates to dp exactly
        pristine = degraded.pristine()
        assert (
            plan(pristine, solver="avoid", cache=cache).total_time
            == plan(pristine, cache=cache).total_time
        )

    def test_pool_solver_rejects_health(self):
        with pytest.raises(ConfigurationError, match="degraded fabrics"):
            plan(
                scenario16(health=uniform_degradation(N, 0.5)),
                solver="pool",
                cache=None,
            )

    def test_avoid_registered_and_validates_options(self):
        assert "avoid" in available_solvers()
        with pytest.raises(ConfigurationError, match="min_health"):
            plan(scenario16(), solver="avoid", min_health=2.0)
        with pytest.raises(ConfigurationError, match="does not accept"):
            plan(scenario16(), solver="avoid", bogus=1)

    def test_plan_many_routes_health_through_the_engine(self):
        base = scenario16()
        degraded = base.replace(health=uniform_degradation(N, 0.5))
        results = plan_many([base, degraded], cache=ThroughputCache())
        assert [r.scenario for r in results] == [base, degraded]
        assert results[1].total_time > results[0].total_time


# -- mid-run fault injection --------------------------------------------------


class TestFaultInjection:
    def test_fault_event_round_trip(self):
        event = FaultEvent(time=us(5), health=uniform_degradation(4, 0.5), label="x")
        assert FaultEvent.from_dict(event.to_dict()) == event
        repair = FaultEvent(time=us(9), health=None)
        assert FaultEvent.from_dict(repair.to_dict()) == repair
        with pytest.raises(FabricError):
            FaultEvent(time=-1.0, health=None)

    def test_mid_run_degradation_slows_and_traces(self):
        cache = ThroughputCache()
        base = scenario16()
        clean = simulate_plan(base, cache=cache)
        half = clean.sim_time / 2
        result = simulate_plan(
            base,
            cache=cache,
            faults=[
                FaultEvent(time=half, health=uniform_degradation(N, 0.5)),
            ],
        )
        assert result.sim_time > clean.sim_time
        assert result.slowdown > 1.0
        assert result.fault_log and result.fault_log[0][1] == "inject"
        # the executor refuses to pretend the model anchor held
        assert result.model_error > 0

    def test_repair_restores_the_standing_condition(self):
        cache = ThroughputCache()
        base = scenario16()
        clean = simulate_plan(base, cache=cache)
        # inject, then repair before anything ran: nothing should change
        result = simulate_plan(
            base,
            cache=cache,
            faults=[
                FaultEvent(time=0.0, health=uniform_degradation(N, 0.5)),
                FaultEvent(time=0.0, health=None),
            ],
        )
        assert result.sim_time == pytest.approx(clean.sim_time, rel=1e-12)
        kinds = [kind for _, kind, _ in result.fault_log]
        assert kinds == ["inject", "repair"]

    def test_injection_composes_with_standing_health(self):
        """A new fault must never silently repair the standing one:
        injecting on an already degraded fabric can only slow it."""
        cache = ThroughputCache()
        standing = scenario16(health=uniform_degradation(N, 0.5))
        undisturbed = simulate_plan(standing, cache=cache)
        hit = simulate_plan(
            standing,
            cache=cache,
            faults=[
                FaultEvent(time=0.0, health=random_failures(N, seed=7)),
            ],
        )
        assert hit.sim_time > undisturbed.sim_time
        # and repair restores the standing (degraded) condition, not pristine
        repaired = simulate_plan(
            standing,
            cache=cache,
            faults=[
                FaultEvent(time=0.0, health=random_failures(N, seed=7)),
                FaultEvent(time=0.0, health=None),
            ],
        )
        assert repaired.sim_time == pytest.approx(undisturbed.sim_time, rel=1e-12)

    def test_faults_validated_before_sorting(self):
        with pytest.raises(Exception, match="FaultEvent"):
            simulate_plan(scenario16(), cache=None, faults=[(1e-5, None)])

    def test_fault_health_validated_against_fabric_size(self):
        from repro.exceptions import SimulationError

        typo = FabricHealth(port_multipliers=((99, 0.5),))
        with pytest.raises(SimulationError, match="rank 99"):
            simulate_plan(
                scenario16(), cache=None, faults=[FaultEvent(0.0, typo)]
            )
        lane_typo = FabricHealth(failed_transceivers=((0, 5),))
        with pytest.raises(SimulationError, match="names no lane"):
            simulate_plan(
                scenario16(), cache=None, faults=[FaultEvent(0.0, lane_typo)]
            )

    def test_fault_past_run_end_keeps_the_model_anchor(self):
        # a never-applied fault leaves the run fault-free: the 1e-9
        # anchor must still be enforced (and hold)
        result = simulate_plan(
            scenario16(),
            cache=None,
            faults=[FaultEvent(1e9, uniform_degradation(N, 0.5))],
        )
        assert result.fault_log == ()
        assert result.model_error < 1e-9

    def test_fault_events_appear_in_the_trace(self):
        base = scenario16()
        planned = plan(base, cache=None)
        from repro.sim import FlowLevelSimulator

        simulator = FlowLevelSimulator(
            base.topology.build(), base.cost, cache=None
        )
        result = simulator.run(
            base.build_collective(),
            planned.schedule,
            faults=(FaultEvent(time=0.0, health=uniform_degradation(N, 0.5)),),
        )
        assert [entry[:2] for entry in result.fault_log] == [(0.0, "inject")]


# -- faulty workloads ---------------------------------------------------------


class TestFaultyWorkloads:
    def make_trace(self):
        return steady_trace(scenario16(alpha_r=us(10)), phases=6)

    def test_faulty_is_deterministic_and_marks_phases(self):
        trace = self.make_trace()
        a = faulty(trace, mtbf=2, seed=3)
        assert a == faulty(trace, mtbf=2, seed=3)
        degraded = [p for p in a.phases if p.health is not None]
        assert degraded and len(degraded) < len(a.phases)
        assert all(p.name.endswith("~") for p in degraded)

    def test_faulty_composes_with_standing_phase_health(self):
        """An outage on an already degraded phase stacks on top of the
        standing condition; it never repairs it."""
        standing = uniform_degradation(N, 0.5)
        trace = steady_trace(
            scenario16(alpha_r=us(10), health=standing), phases=6
        )
        shaky = faulty(trace, mtbf=2, seed=3)
        outage_phases = [p for p in shaky.phases if p.name.endswith("~")]
        assert outage_phases
        for phase in outage_phases:
            assert all(
                phase.health.multiplier(rank) <= standing.multiplier(rank)
                for rank in range(N)
            )

    def test_faulty_phases_execute_with_exact_model_anchor(self):
        cache = ThroughputCache()
        trace = faulty(self.make_trace(), mtbf=2, seed=3)
        workload_plan = plan_workload(trace, policy="hysteresis", cache=cache)
        result = simulate_workload(workload_plan, cache=cache)
        assert result.model_error < 1e-9
        healthy_plan = plan_workload(self.make_trace(), policy="hysteresis", cache=cache)
        assert workload_plan.total_time > healthy_plan.total_time

    def test_compare_policies_flags_degraded_phases(self):
        cache = ThroughputCache()
        trace = faulty(self.make_trace(), mtbf=2, seed=3)
        comparison = compare_policies(trace, cache=cache)
        for policy in comparison.policies:
            records = comparison.phase_records(policy)
            flags = [r.degraded for r in records]
            expected = [p.health is not None for p in trace.phases]
            assert flags == expected
        # the oracle never loses to the memoryless baseline, faults or not
        assert comparison.speedup("oracle") >= 1.0 - 1e-12


# -- the experiment grid ------------------------------------------------------


class TestDegradationGrid:
    def test_grid_shape_and_orderings(self):
        config = small_config(N)
        cells = run_degradation_grid(config, cache=ThroughputCache())
        conditions = [name for name, _ in default_conditions(N)]
        assert [c.condition for c in cells[::2]] == conditions
        pristine = cells[0]
        assert pristine.condition == "pristine" and pristine.solver == "dp"
        assert pristine.planned_slowdown == 1.0
        for cell in cells:
            if cell.condition == "pristine":
                continue
            assert cell.planned_slowdown > 1.0
            assert cell.sim_slowdown > 1.0
            # simulated equals planned per cell (the model anchor)
            assert cell.sim_time == pytest.approx(cell.planned_time, rel=1e-9)

    def test_explicit_pristine_health_is_recognized_as_anchor(self):
        config = small_config(N)
        cells = run_degradation_grid(
            config,
            conditions=[
                ("baseline", PRISTINE),
                ("one-failure", random_failures(N, seed=7)),
            ],
            cache=ThroughputCache(),
        )
        # no duplicate pristine row was inserted; "baseline" anchors
        assert [c.condition for c in cells[::2]] == ["baseline", "one-failure"]
        assert cells[0].planned_slowdown == 1.0

    def test_cells_serialize(self):
        config = small_config(N)
        cells = run_degradation_grid(config, cache=ThroughputCache())
        payload = json.dumps([cell.to_dict() for cell in cells])
        assert json.loads(payload)[0]["condition"] == "pristine"


# -- golden fixture -----------------------------------------------------------

FIXTURE = Path(__file__).parent / "fixtures" / "golden_degradation_n16.json"
ACTUAL = FIXTURE.parent / "golden_degradation_n16.actual.json"
REL_TOL = 1e-6


def compute_golden() -> dict:
    config = small_config(N)
    cells = run_degradation_grid(config, cache=ThroughputCache())
    return {
        "n": N,
        "base": degradation_base_scenario(config).to_dict(),
        "cells": [cell.to_dict() for cell in cells],
    }


@pytest.fixture(scope="module")
def golden_actual() -> dict:
    return compute_golden()


def test_golden_fixture_exists_or_regenerate(golden_actual):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(golden_actual, indent=2) + "\n")
    assert FIXTURE.exists(), (
        f"golden fixture {FIXTURE} is missing; regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )


def test_degradation_grid_matches_golden_fixture(golden_actual):
    if not FIXTURE.exists():
        pytest.skip("fixture missing (covered by test_golden_fixture_exists)")
    golden = json.loads(FIXTURE.read_text())
    mismatches = []
    if golden["base"] != golden_actual["base"]:
        mismatches.append("base scenario changed")
    for want, have in zip(golden["cells"], golden_actual["cells"]):
        for key in sorted(set(want) | set(have)):
            w, h = want.get(key), have.get(key)
            if w == h:
                continue
            if (
                isinstance(w, float)
                and isinstance(h, float)
                and math.isclose(w, h, rel_tol=REL_TOL)
            ):
                continue
            mismatches.append(
                f"{want['condition']}/{want['solver']}.{key}: "
                f"fixture={w!r} got={h!r}"
            )
    if len(golden["cells"]) != len(golden_actual["cells"]):
        mismatches.append("cell count changed")
    if mismatches:
        ACTUAL.write_text(json.dumps(golden_actual, indent=2) + "\n")
        pytest.fail(
            "degradation grid drifted from the committed fixture "
            f"({len(mismatches)} fields); wrote {ACTUAL} for diffing.\n"
            + "\n".join(mismatches[:20])
        )
