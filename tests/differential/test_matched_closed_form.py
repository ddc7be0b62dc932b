"""Matched steps: the simulator's closed form vs the graph route.

The flow simulator prices a ``MATCHED`` step by paper §3.3: every pair
owns a dedicated circuit, so ``l = 1`` and the rate is ``b`` times the
slowest circuit's health multiplier (``StepCost.matched_cost``'s
denominator).  It used to build that configuration as a ``Topology``
(one edge per pair at ``b * health.pair_multiplier``) and run
``allocate_rates(method="mcf", cache=None)`` on it.  That route is
rebuilt here as the oracle; rates and hops must be equal, not close, on
pristine fabrics and on hypothesis-drawn degraded ones.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from families import RATE, health_states, matchings
from repro.collectives import Collective, Step
from repro.core import CostParameters, Schedule
from repro.fabric import FabricHealth, FaultEvent
from repro.matching import Matching
from repro.sim import FlowLevelSimulator, allocate_rates
from repro.topology import Topology, matched_topology, ring
from repro.units import MiB, ns, us

#: Nominal rates, including ones that are not powers of two.
BANDWIDTHS = (RATE, 3.0, 1e-6, 37.5e9)


def graph_route(matching: Matching, bandwidth: float, health) -> list:
    """The retired route: a circuit ``Topology`` priced by the LP front
    door with no cache (closed form ``matched``)."""
    if health is None:
        circuits = matched_topology(matching, bandwidth)
    else:
        circuits = Topology(
            matching.n,
            [
                (src, dst, bandwidth * health.pair_multiplier(src, dst))
                for src, dst in matching
            ],
            name="matched~degraded",
            metadata={"family": "matched", "reference_rate": bandwidth},
        )
    flows = allocate_rates(circuits, matching, bandwidth, method="mcf", cache=None)
    return [(f.src, f.dst, f.rate, f.hops) for f in flows]


def simulated(
    steps: list[Matching],
    bandwidth: float,
    health=None,
    faults=(),
) -> list[list]:
    """Per step, the ``(src, dst, rate, hops)`` rows the simulator
    observed when every step ran matched."""
    n = steps[0].n
    collective = Collective(
        "matched-steps",
        "custom",
        n,
        MiB(1),
        [Step(matching=matching, volume=MiB(1)) for matching in steps],
        MiB(1),
        1,
    )
    params = CostParameters(
        alpha=ns(100),
        bandwidth=bandwidth,
        delta=ns(100),
        reconfiguration_delay=us(1),
    )
    simulator = FlowLevelSimulator(ring(n, bandwidth), params, health=health)
    result = simulator.run(
        collective,
        Schedule.always_reconfigure(len(steps)),
        faults=faults,
        observe_rates=True,
    )
    rows: list[list] = [[] for _ in steps]
    for o in result.rate_observations:
        assert o.decision == "matched"
        rows[o.step].append((o.src, o.dst, o.rate, o.hops))
    return rows


def test_pristine_fabrics_match_the_graph_route():
    for bandwidth in BANDWIDTHS:
        for n in (4, 8, 16):
            steps = [Matching.shift(n, k) for k in range(1, n)]
            steps += [Matching.xor_exchange(n, 1), Matching(n, [(0, n - 1)])]
            observed = simulated(steps, bandwidth)
            for matching, rows in zip(steps, observed):
                assert rows == graph_route(matching, bandwidth, None)
                assert {rate for _, _, rate, _ in rows} == {bandwidth}


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.sampled_from((4, 8)),
    bandwidth=st.sampled_from(BANDWIDTHS),
)
def test_degraded_fabrics_match_the_graph_route(data, n, bandwidth):
    health = data.draw(health_states(n))
    steps = [
        data.draw(matchings(n).filter(lambda m: len(m) > 0)) for _ in range(3)
    ]
    observed = simulated(steps, bandwidth, health)
    standing = None if health.is_pristine else health
    for matching, rows in zip(steps, observed):
        assert rows == graph_route(matching, bandwidth, standing)
        assert all(hops == 1.0 for _, _, _, hops in rows)


def test_mid_run_faults_price_matched_steps_on_the_composed_health():
    n = 8
    standing = FabricHealth(port_multipliers=((2, 0.5),), name="standing")
    injected = FabricHealth(
        port_multipliers=((5, 0.25),),
        dead_wavelengths=1,
        total_wavelengths=4,
        name="injected",
    )
    steps = [Matching.shift(n, 1), Matching.shift(n, 3), Matching.shift(n, 1)]
    observed = simulated(
        steps,
        RATE,
        standing,
        faults=[FaultEvent(time=1e-12, health=injected)],
    )
    assert observed[0] == graph_route(steps[0], RATE, standing)
    composed = standing.compose(injected)
    for matching, rows in zip(steps[1:], observed[1:]):
        assert rows == graph_route(matching, RATE, composed)
    assert observed[1] != graph_route(steps[1], RATE, standing)

