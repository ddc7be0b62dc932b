"""Flow-level simulator: rates, timeline, and the
simulator-equals-analytic-model anchor invariant."""

import json
import math

import numpy as np
import pytest

from repro.collectives import make_collective
from repro.core import (
    CostParameters,
    Decision,
    Schedule,
    evaluate_schedule,
    evaluate_step_costs,
    optimize_schedule,
)
from repro.exceptions import SimulationError, TopologyError
from repro.fabric import (
    FabricHealth,
    PerPortReconfigurationDelay,
    ReconfigurationModel,
)
from repro.matching import Matching
from repro.sim import (
    FlowLevelSimulator,
    FlowRate,
    FlowRates,
    RateObservation,
    RateObservations,
    allocate_rates,
    observations_from_rows,
    observations_to_rows,
    simulate,
)
from repro.sim.rates import RATE_METHODS, _hops, clear_incidence_cache
from repro.topology import Topology, pod_fabric, ring, star, torus
from repro.units import Gbps, MiB, ns, us

B = Gbps(800)


def make_params(alpha_r=us(10)):
    return CostParameters(
        alpha=ns(100), bandwidth=B, delta=ns(100), reconfiguration_delay=alpha_r
    )


class TestRateAllocation:
    def test_mcf_rates_match_theta(self):
        topology = ring(8, B)
        matching = Matching.shift(8, 2)
        flows = allocate_rates(topology, matching, B, method="mcf", cache=None)
        expected = 0.5 * 8 / (2 * 6) * B
        assert all(f.rate == pytest.approx(expected) for f in flows)

    def test_maxmin_rates_feasible(self):
        topology = ring(8, B)
        matching = Matching.xor_exchange(8, 2)
        flows = allocate_rates(topology, matching, B, method="maxmin")
        loads = {}
        for flow in flows:
            path = topology.shortest_path(flow.src, flow.dst)
            for edge in zip(path, path[1:]):
                loads[edge] = loads.get(edge, 0.0) + flow.rate
        for (u, v), load in loads.items():
            assert load <= topology.capacity(u, v) * (1 + 1e-9)

    def test_maxmin_on_uniform_shift_saturates(self):
        topology = ring(8, B)
        flows = allocate_rates(topology, Matching.shift(8, 1), B, method="maxmin")
        assert all(f.rate == pytest.approx(B / 2) for f in flows)

    def test_equal_share(self):
        topology = ring(8, B)
        flows = allocate_rates(topology, Matching.shift(8, 2), B, method="equal")
        # shortest-path only, 2 flows share each clockwise edge of b/2
        assert all(f.rate == pytest.approx(B / 4) for f in flows)

    def test_empty_matching(self):
        assert allocate_rates(ring(4, B), Matching.identity(4), B) == ()

    def test_unknown_method(self):
        with pytest.raises(SimulationError):
            allocate_rates(ring(4, B), Matching.shift(4, 1), B, method="tcp")


def _hop_topologies():
    return {
        "ring": ring(8, B),
        "torus": torus((2, 4), B),
        "pod-fabric": pod_fabric(8, B, pods=2, uplinks_per_pod=1),
        # A dark 1->2 lane sends the (1, 2) pair the long way round.
        "dark-lane-ring": FabricHealth(failed_transceivers=((1, 2),)).apply(
            ring(8, B)
        ),
    }


class TestHopColumns:
    """``allocate_rates``' hops come from one read-only column memoized
    per (topology fingerprint, matching), and always equal
    :meth:`Topology.hop_distance` pair by pair."""

    @pytest.mark.parametrize("method", RATE_METHODS)
    @pytest.mark.parametrize("name", sorted(_hop_topologies()))
    def test_hops_equal_hop_distance_cold_and_memoized(self, name, method):
        topology = _hop_topologies()[name]
        matching = Matching.shift(8, 1)
        expected = [float(topology.hop_distance(s, d)) for s, d in matching]
        clear_incidence_cache()
        cold = allocate_rates(topology, matching, B, method=method, cache=None)
        warm = allocate_rates(topology, matching, B, method=method, cache=None)
        assert cold.hops.tolist() == expected
        assert warm.hops is cold.hops  # served from the memo
        assert not cold.hops.flags.writeable

    def test_dark_lane_changes_the_column(self):
        hops = allocate_rates(
            _hop_topologies()["dark-lane-ring"], Matching.shift(8, 1), B
        ).hops
        assert hops.tolist() == [1.0, 7.0] + [1.0] * 6

    def test_disconnected_pair_raises_on_every_call(self):
        halves = Topology(4, [(0, 1, B), (1, 0, B), (2, 3, B), (3, 2, B)])
        matching = Matching(4, [(0, 2)])
        for _ in range(2):  # a failed build is not memoized
            with pytest.raises(TopologyError):
                _hops(halves, matching)

    def test_clear_incidence_cache_empties_the_hop_memo(self):
        topology, matching = ring(8, B), Matching.shift(8, 3)
        first = allocate_rates(topology, matching, B, method="equal").hops
        clear_incidence_cache()
        again = allocate_rates(topology, matching, B, method="equal").hops
        assert again is not first
        assert again.tolist() == first.tolist()


class TestSimulatorEqualsModel:
    @pytest.mark.parametrize(
        "name", ["allreduce_recursive_doubling", "allreduce_swing", "alltoall"]
    )
    @pytest.mark.parametrize("bits", ["static", "bvn", "opt"])
    def test_exact_agreement(self, name, bits):
        n = 8
        collective = make_collective(name, n, MiB(2))
        topology = ring(n, B)
        params = make_params(us(5))
        costs = evaluate_step_costs(collective, topology, params)
        if bits == "static":
            schedule = Schedule.static(collective.num_steps)
        elif bits == "bvn":
            schedule = Schedule.always_reconfigure(collective.num_steps)
        else:
            schedule = optimize_schedule(costs, params).schedule
        analytic = evaluate_schedule(costs, schedule, params)
        simulator = FlowLevelSimulator(topology, params)
        result = simulator.run(collective, schedule)
        assert result.total_time == pytest.approx(analytic.total, rel=1e-12)
        assert result.n_reconfigurations == analytic.n_reconfigurations

    def test_runner_checks_model(self):
        collective = make_collective("allreduce_swing", 8, MiB(2))
        report = simulate(collective, ring(8, B), make_params())
        assert report.model_error < 1e-12
        assert report.speedup_vs_static >= 1.0 - 1e-12
        assert report.speedup_vs_bvn >= 1.0 - 1e-12


class TestSimulatorBehaviour:
    def test_trace_structure(self):
        collective = make_collective("alltoall", 8, MiB(1))
        params = make_params()
        simulator = FlowLevelSimulator(ring(8, B), params)
        result = simulator.run(
            collective, Schedule.always_reconfigure(collective.num_steps)
        )
        rows = result.steps
        assert [row.index for row in rows] == list(range(collective.num_steps))
        assert [row.label for row in rows] == [
            step.label for step in collective.steps
        ]
        assert all(row.decision == "matched" for row in rows)
        assert all(row.start <= row.end for row in rows)
        assert all(a.end <= b.start for a, b in zip(rows, rows[1:]))
        assert rows[-1].end == result.total_time
        assert sum(row.reconfiguration for row in rows) == pytest.approx(
            result.reconfiguration_time
        )

    def test_physical_accounting_skips_identical_configs(self):
        # ring allreduce repeats the same matched pattern every step
        collective = make_collective("allreduce_ring", 8, MiB(8))
        params = make_params(us(10))
        paper = FlowLevelSimulator(ring(8, B), params, accounting="paper")
        physical = FlowLevelSimulator(ring(8, B), params, accounting="physical")
        schedule = Schedule.always_reconfigure(collective.num_steps)
        paper_result = paper.run(collective, schedule)
        physical_result = physical.run(collective, schedule)
        assert physical_result.n_reconfigurations == 1
        assert physical_result.total_time < paper_result.total_time

    def test_physical_accounting_with_per_port_model(self):
        collective = make_collective("allreduce_recursive_doubling", 8, MiB(1))
        params = make_params(us(10))
        simulator = FlowLevelSimulator(
            ring(8, B),
            params,
            accounting="physical",
            reconfiguration_model=PerPortReconfigurationDelay(us(1), ns(100)),
        )
        result = simulator.run(
            collective, Schedule.always_reconfigure(collective.num_steps)
        )
        assert result.reconfiguration_time > 0

    @pytest.mark.parametrize("compute_overlap", [False, True])
    def test_negative_reconfiguration_delay_is_rejected(self, compute_overlap):
        """The run's clock only moves forward: a delay model that prices
        a change below zero is refused, even where compute would hide
        it."""

        class Rewind(ReconfigurationModel):
            def delay_for_ports(self, n_ports):
                return -us(1)

        collective = make_collective("allreduce_ring", 8, MiB(1))
        simulator = FlowLevelSimulator(
            ring(8, B),
            make_params(),
            accounting="physical",
            reconfiguration_model=Rewind(),
        )
        with pytest.raises(SimulationError, match="must be >= 0"):
            simulator.run(
                collective,
                Schedule.always_reconfigure(collective.num_steps),
                compute_overlap=compute_overlap,
            )

    def test_physical_accounting_rejects_relay_base(self):
        params = make_params()
        with pytest.raises(SimulationError):
            FlowLevelSimulator(star(8, B), params, accounting="physical")

    def test_maxmin_never_beats_mcf(self):
        collective = make_collective("allreduce_recursive_doubling", 8, MiB(4))
        params = make_params(us(1))
        schedule = Schedule.static(collective.num_steps)
        mcf = FlowLevelSimulator(ring(8, B), params, rate_method="mcf")
        maxmin = FlowLevelSimulator(ring(8, B), params, rate_method="maxmin")
        t_mcf = mcf.run(collective, schedule).total_time
        t_maxmin = maxmin.run(collective, schedule).total_time
        assert t_maxmin >= t_mcf - 1e-15

    def test_compute_overlap_reduces_total(self):
        collective = make_collective("allreduce_swing", 8, MiB(1))
        # attach compute to every step
        from repro.collectives import Collective, Step

        steps = [
            Step(
                matching=s.matching,
                volume=s.volume,
                transfers=s.transfers,
                compute_time=us(30),
                label=s.label,
            )
            for s in collective.steps
        ]
        with_compute = Collective(
            collective.name,
            collective.kind,
            collective.n,
            collective.message_size,
            steps,
            collective.chunk_size,
            collective.n_chunks,
        )
        params = make_params(us(20))
        simulator = FlowLevelSimulator(ring(8, B), params)
        schedule = Schedule.always_reconfigure(with_compute.num_steps)
        serial = simulator.run(with_compute, schedule, compute_overlap=False)
        overlapped = simulator.run(with_compute, schedule, compute_overlap=True)
        assert overlapped.total_time < serial.total_time

    def test_schedule_length_mismatch(self):
        collective = make_collective("alltoall", 8, MiB(1))
        simulator = FlowLevelSimulator(ring(8, B), make_params())
        with pytest.raises(SimulationError):
            simulator.run(collective, Schedule.static(3))

    def test_rank_mismatch(self):
        collective = make_collective("alltoall", 4, MiB(1))
        simulator = FlowLevelSimulator(ring(8, B), make_params())
        with pytest.raises(SimulationError):
            simulator.run(collective, Schedule.static(collective.num_steps))

    def test_unknown_accounting(self):
        with pytest.raises(SimulationError):
            FlowLevelSimulator(ring(8, B), make_params(), accounting="free")

    def test_zero_volume_collective(self):
        from repro.collectives import barrier_dissemination

        barrier = barrier_dissemination(8)
        params = make_params(us(1))
        report = simulate(barrier, ring(8, B), params)
        # barrier time = steps * alpha + propagation only
        assert report.simulation.total_time > 0
        assert math.isfinite(report.simulation.total_time)


class TestMatchedStepsBuildNoGraph:
    """A matched step is priced by the §3.3 closed form: no circuit
    topology is built and no shortest path is searched."""

    @pytest.mark.parametrize("accounting", ["paper", "physical"])
    @pytest.mark.parametrize("degraded", [False, True], ids=["pristine", "degraded"])
    def test_all_matched_run(self, monkeypatch, accounting, degraded):
        health = (
            FabricHealth(
                port_multipliers=((3, 0.5),),
                dead_wavelengths=1,
                total_wavelengths=4,
            )
            if degraded
            else None
        )
        collective = make_collective("alltoall", 8, MiB(1))
        simulator = FlowLevelSimulator(
            ring(8, B), make_params(), accounting=accounting, health=health
        )
        counts = {"topologies": 0, "hop_distance": 0}
        init, hop_distance = Topology.__init__, Topology.hop_distance

        def counting_init(self, *args, **kwargs):
            counts["topologies"] += 1
            init(self, *args, **kwargs)

        def counting_hop_distance(self, src, dst):
            counts["hop_distance"] += 1
            return hop_distance(self, src, dst)

        monkeypatch.setattr(Topology, "__init__", counting_init)
        monkeypatch.setattr(Topology, "hop_distance", counting_hop_distance)
        result = simulator.run(
            collective,
            Schedule.always_reconfigure(collective.num_steps),
            observe_rates=True,
        )
        assert counts == {"topologies": 0, "hop_distance": 0}
        rate = B * (0.375 if degraded else 1.0)
        assert {o.rate for o in result.rate_observations} == {rate}
        assert {o.hops for o in result.rate_observations} == {1.0}


class TestColumnBlocks:
    """``FlowRates`` and ``RateObservations``: read-only numpy columns
    that read as a sequence of rows."""

    def observed(self):
        collective = make_collective("allreduce_recursive_doubling", 8, MiB(1))
        schedule = Schedule(
            decisions=tuple(
                Decision.MATCHED if i % 2 else Decision.BASE
                for i in range(collective.num_steps)
            )
        )
        sim = FlowLevelSimulator(ring(8, B), make_params(), rate_method="maxmin")
        return sim.run(collective, schedule, observe_rates=True).rate_observations

    def test_flow_rates_columns(self):
        flows = allocate_rates(ring(8, B), Matching.xor_exchange(8, 2), B, "maxmin")
        assert isinstance(flows, FlowRates)
        assert [c.dtype for c in (flows.src, flows.dst, flows.rate, flows.hops)] == [
            np.int64, np.int64, np.float64, np.float64,
        ]
        with pytest.raises(ValueError):
            flows.rate[0] = 1.0
        rows = [
            FlowRate(*cells)
            for cells in zip(
                flows.src.tolist(),
                flows.dst.tolist(),
                flows.rate.tolist(),
                flows.hops.tolist(),
            )
        ]
        assert flows == rows and flows == tuple(rows) and flows != rows[1:]
        assert FlowRates.of(rows) == flows and FlowRates.of(flows) is flows
        assert FlowRates() == () and len(FlowRates()) == 0

    def test_rate_observation_columns(self):
        block = self.observed()
        assert isinstance(block, RateObservations)
        assert block.step.dtype == np.int64 and block.matched.dtype == bool
        assert block.matched.tolist() == [o.decision == "matched" for o in block]
        with pytest.raises(ValueError):
            block.end[0] = 0.0
        rows = list(block)
        assert all(type(o) is RateObservation for o in rows)
        assert RateObservations.of(rows) == block
        assert RateObservations.of(block) is block

    def test_rows_round_trip_as_plain_lists(self):
        block = self.observed()
        rows = observations_to_rows(block)
        assert json.loads(json.dumps(rows)) == rows
        assert {type(v) for row in rows for v in row} == {int, float, str}
        back = observations_from_rows(rows)
        assert isinstance(back, RateObservations) and back == block

    def test_volumes_match_the_rows(self):
        block = self.observed()
        delta = make_params().delta
        assert block.volumes(delta).tolist() == [o.volume(delta) for o in block]
        short = RateObservations.of(
            [RateObservation(0, 1, 2, 1e9, 0.0, 1e-9, 3.0, "base")]
        )
        with pytest.raises(SimulationError) as from_row:
            short[0].volume(1e-9)
        with pytest.raises(SimulationError) as from_block:
            short.volumes(1e-9)
        assert str(from_block.value) == str(from_row.value)
