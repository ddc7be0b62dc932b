"""The columnar flow simulator vs the per-flow loop it replaced.

:class:`~repro.sim.FlowLevelSimulator` prices each step's flows as numpy
columns (a :class:`~repro.sim.FlowRates` block) and records a run's
telemetry as one :class:`~repro.sim.RateObservations` block, which
:func:`~repro.control.demand_from_observations` folds with one
``np.add.at``.  The oracle below is the historical per-flow route, kept
whole: :class:`~repro.sim.FlowRate` rows looked up pair by pair (base
steps through the dense kernels of ``test_sparse_vs_dense``), one
completion per flow with the strict ``>`` that keeps the first of
equally slow flows, one :class:`~repro.sim.RateObservation` per flow,
and the per-row demand fold.  Every output must be equal, not close:
totals, step rows, telemetry rows and demand matrices.
"""

from __future__ import annotations

import numpy as np
import pytest

from families import RATE
from test_sparse_vs_dense import oracle_rates

from repro.collectives import Collective, Step, make_collective
from repro.control import demand_from_observations
from repro.core import CostParameters, Decision, Schedule
from repro.fabric import FabricHealth, FaultEvent
from repro.fabric.reconfiguration import configuration_from_matching
from repro.flows import ThroughputCache, compute_theta
from repro.matching import Matching
from repro.planner import Scenario
from repro.sim import (
    FlowLevelSimulator,
    FlowRate,
    RateObservation,
    SimResult,
    SimStep,
    allocate_rates,
    simulate_plan,
)
from repro.sim.flowsim import SimulationResult
from repro.topology import ring
from repro.units import MiB, ns, us

PARAMS = CostParameters(
    alpha=ns(100), bandwidth=RATE, delta=ns(100), reconfiguration_delay=us(1)
)

# -- the oracle: the per-flow route ------------------------------------------


def reference_flows(sim, matching, decision, topology, health):
    """One :class:`FlowRate` per pair, looked up pair by pair."""
    if decision is Decision.MATCHED:
        multiplier = 1.0 if health is None else health.matched_multiplier(matching)
        rate = sim.params.bandwidth * multiplier
        return tuple(FlowRate(src, dst, rate, 1.0) for src, dst in matching)
    if sim.rate_method == "mcf":
        theta = compute_theta(
            topology, matching, reference_rate=sim.params.bandwidth, cache=sim.cache
        )
        rate = theta * sim.params.bandwidth
        return tuple(
            FlowRate(src, dst, rate, float(topology.hop_distance(src, dst)))
            for src, dst in matching
        )
    rates = oracle_rates(topology, matching, sim.rate_method)
    return tuple(
        FlowRate(
            src,
            dst,
            float(rates[(src, dst)]),
            float(topology.hop_distance(src, dst)),
        )
        for src, dst in matching
    )


def reference_run(sim, collective, schedule, faults=()):
    """The simulator's run loop with the per-flow step (no compute
    overlap, no carried configuration)."""
    pending = sorted(faults, key=lambda event: event.time)
    now = 0.0
    rows, observations, fault_log = [], [], []
    reconf_total, n_reconf = 0.0, 0
    live_topology, live_health = sim._live_topology, sim.health
    previous, current_config = Decision.BASE, sim._base_config
    compute_until = 0.0
    for index, step in enumerate(collective.steps):
        while pending and pending[0].time <= now + 1e-18:
            event = pending.pop(0)
            if event.health is None or event.health.is_pristine:
                live_health, live_topology = sim.health, sim._live_topology
                kind = "repair"
            else:
                live_health = (
                    sim.health.compose(event.health)
                    if sim.health is not None
                    else event.health
                )
                live_topology = live_health.apply(sim.topology)
                kind = "inject"
            label = event.label or ("" if event.health is None else event.health.name)
            fault_log.append((now, kind, label))
        decision = schedule.decisions[index]
        target_config = None
        if sim.accounting == "physical":
            target_config = (
                configuration_from_matching(step.matching)
                if decision is Decision.MATCHED
                else sim._base_config
            )
        delay = sim._reconfiguration_delay(
            previous, decision, current_config, target_config
        )
        reconf_start = max(compute_until, now)
        barrier_at = reconf_start + delay
        if delay > 0:
            reconf_total += delay
            n_reconf += 1
        assert barrier_at >= now
        now = barrier_at
        barrier_time = now
        start = barrier_time + sim.params.alpha
        end, slowest = start, None
        if len(step.matching) > 0:
            for flow in reference_flows(
                sim, step.matching, decision, live_topology, live_health
            ):
                completion = (
                    start
                    + (step.volume / flow.rate if step.volume > 0 else 0.0)
                    + sim.params.delta * flow.hops
                )
                if completion > end:
                    end = completion
                    slowest = (flow.src, flow.dst)
                observations.append(
                    RateObservation(
                        step=index,
                        src=flow.src,
                        dst=flow.dst,
                        rate=flow.rate,
                        start=start,
                        end=completion,
                        hops=flow.hops,
                        decision=(
                            "matched" if decision is Decision.MATCHED else "base"
                        ),
                    )
                )
        assert end >= now
        now = end
        compute_until = end + step.compute_time if step.compute_time > 0 else end
        rows.append(
            SimStep(
                index, decision.value, step.label, delay, barrier_time, end,
                slowest,
            )
        )
        previous = decision
        if sim.accounting == "physical":
            current_config = target_config
    final = max(now, compute_until)
    return SimulationResult(
        total_time=final,
        steps=tuple(rows),
        reconfiguration_time=reconf_total,
        n_reconfigurations=n_reconf,
        final_configuration=(
            current_config if sim.accounting == "physical" else None
        ),
        fault_log=tuple(fault_log),
        rate_observations=tuple(observations),
    )


def reference_demand(observations, n, delta):
    """The per-row de-censoring fold."""
    demand = np.zeros((n, n), dtype=float)
    for obs in observations:
        demand[obs.src, obs.dst] += obs.volume(delta)
    return demand


def assert_same_run(sim, collective, schedule, faults=()):
    """Columnar run == per-flow run, field for field; returns the run."""
    got = sim.run(collective, schedule, faults=faults, observe_rates=True)
    want = reference_run(sim, collective, schedule, faults)
    assert got.total_time == want.total_time
    assert got.steps == want.steps
    assert got.reconfiguration_time == want.reconfiguration_time
    assert got.n_reconfigurations == want.n_reconfigurations
    assert got.final_configuration == want.final_configuration
    assert got.fault_log == want.fault_log
    assert got.rate_observations == want.rate_observations
    n = collective.n
    assert np.array_equal(
        demand_from_observations(got.rate_observations, n, sim.params.delta),
        reference_demand(want.rate_observations, n, sim.params.delta),
    )
    return got


# -- the grid ------------------------------------------------------------------

DIMMED = FabricHealth(port_multipliers=((1, 0.5),), name="dim-1")


@pytest.mark.parametrize("health", [None, DIMMED], ids=["pristine", "dimmed"])
@pytest.mark.parametrize("accounting", ["paper", "physical"])
@pytest.mark.parametrize("method", ["mcf", "maxmin", "equal"])
@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize(
    "name", ["allreduce_recursive_doubling", "alltoall", "allreduce_ring"]
)
def test_columnar_run_equals_the_per_flow_loop(name, n, method, accounting, health):
    collective = make_collective(name, n, MiB(8))
    schedule = Schedule(
        decisions=tuple(
            Decision.MATCHED if i % 3 == 1 else Decision.BASE
            for i in range(collective.num_steps)
        )
    )
    # n=16 takes a fault mid-run and a repair later (both at step
    # boundaries strictly inside the run).
    faults = (
        (
            FaultEvent(2e-6, FabricHealth(port_multipliers=((3, 0.25),)), "dim-3"),
            FaultEvent(6e-6, None, "repair"),
        )
        if n == 16
        else ()
    )
    sim = FlowLevelSimulator(
        ring(n, RATE),
        PARAMS,
        rate_method=method,
        accounting=accounting,
        health=health,
        cache=ThroughputCache(),
    )
    result = assert_same_run(sim, collective, schedule, faults)
    assert len(result.fault_log) == len(faults)
    assert {o.decision for o in result.rate_observations} == {"base", "matched"}


def one_step(matching, volume):
    return Collective(
        "one-step", "custom", matching.n, volume,
        [Step(matching=matching, volume=volume)], volume, 1,
    )


@pytest.mark.parametrize("decision", [Decision.BASE, Decision.MATCHED])
@pytest.mark.parametrize("method", ["mcf", "maxmin", "equal"])
def test_tied_flows_name_the_first_pair_slowest(method, decision):
    # A uniform shift on a ring: every pair has one hop and one rate, so
    # every flow completes at once; the first pair is the slowest.
    sim = FlowLevelSimulator(ring(8, RATE), PARAMS, rate_method=method)
    got = assert_same_run(
        sim, one_step(Matching.shift(8, 1), MiB(1)), Schedule((decision,))
    )
    assert len({o.end for o in got.rate_observations}) == 1
    assert got.steps[0].slowest_pair == (0, 1)


@pytest.mark.parametrize("delta", [ns(100), 0.0])
@pytest.mark.parametrize("decision", [Decision.BASE, Decision.MATCHED])
def test_zero_volume_step(decision, delta):
    params = CostParameters(
        alpha=ns(100), bandwidth=RATE, delta=delta, reconfiguration_delay=us(1)
    )
    sim = FlowLevelSimulator(ring(8, RATE), params, rate_method="maxmin")
    got = assert_same_run(
        sim, one_step(Matching.shift(8, 3), 0.0), Schedule((decision,))
    )
    step = got.steps[0]
    if delta == 0.0:
        # Every flow lands at its start: the step has no slowest pair.
        assert step.slowest_pair is None and step.end == step.start + ns(100)
    else:
        assert step.slowest_pair is not None


# -- the row view ------------------------------------------------------------


def row_view_contract(block, rows):
    """``block`` reads as the tuple ``rows``."""
    assert len(block) == len(rows)
    assert block == rows and rows == tuple(block)
    assert block[0] == rows[0] and block[-1] == rows[-1]
    assert block[len(rows) - 2] == rows[-2] and block[-len(rows)] == rows[0]
    assert block[1:3] == rows[1:3] and block[::-2] == rows[::-2]
    assert type(block[1:3]) is type(block)
    assert list(block) == list(rows)
    assert hash(block) == hash(rows)
    assert block != rows[:-1] and block != rows[::-1]
    for index in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            block[index]


def test_flow_rates_row_view():
    topology, matching = ring(8, RATE), Matching.xor_exchange(8, 2)
    sim = FlowLevelSimulator(topology, PARAMS, rate_method="maxmin")
    block = allocate_rates(topology, matching, RATE, "maxmin")
    row_view_contract(
        block, reference_flows(sim, matching, Decision.BASE, topology, None)
    )
    assert allocate_rates(ring(4, RATE), Matching.identity(4), RATE) == ()


def test_rate_observations_row_view_and_round_trip():
    scenario = Scenario.create(
        "allreduce_recursive_doubling", n=8, message_size=MiB(1),
        bandwidth=RATE, alpha=ns(100), delta=ns(100), reconfiguration_delay=us(3),
    )
    result = simulate_plan(scenario, accounting="physical", observe_rates=True)
    sim = FlowLevelSimulator(
        scenario.build_topology(), scenario.cost, accounting="physical"
    )
    want = reference_run(
        sim, scenario.build_collective(), result.plan.schedule
    ).rate_observations
    assert {o.decision for o in want} == {"base", "matched"}
    row_view_contract(result.rate_observations, want)
    restored = SimResult.from_dict(result.to_dict())
    assert restored == result
    assert restored.rate_observations == want
    unobserved = simulate_plan(scenario, accounting="physical")
    assert unobserved.rate_observations == ()
    assert SimResult.from_dict(unobserved.to_dict()) == unobserved
