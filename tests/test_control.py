"""The online control loop: stochastic traces, estimation, regret.

Acceptance criteria of the online-control PR:

* every stochastic generator is a pure function of ``(args, seed)`` —
  byte-identical ``to_dict`` payloads per seed, and per engine run;
* the Poisson arrival process has the inter-arrival statistics it
  claims (seeded, CI-bounded, non-flaky);
* the controller is information-honest — it only ever sees
  demand-masked skeletons and achieved-rate telemetry — and on a
  piecewise-stationary trace the ``online-ewma`` policy's regret
  against the clairvoyant ``oracle`` is bounded while strictly beating
  the never-replanning ``online-static`` floor;
* the observation hook survives a JSON round trip, so the daemon's
  simulate responses carry the telemetry intact;
* the streaming ``online`` service kind drives a daemon-resident
  controller session from observations alone.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics

import pytest

from repro.analysis import measure_regret
from repro.control import (
    AnyTrigger,
    ControlError,
    DriftTrigger,
    EstimationError,
    FaultTrigger,
    NeverTrigger,
    ONLINE_POLICIES,
    OnlineController,
    PeriodicTrigger,
    SlidingWindowDemandEstimator,
    TriggerSignal,
    demand_from_observations,
    make_trigger,
    mask_demand,
)
from repro.exceptions import ReproError, SimulationError, WorkloadError
from repro.flows import ThroughputCache
from repro.planner import Scenario
from repro.service import (
    OnlineBody,
    PlannerDaemon,
    ServiceRequest,
    try_validate,
)
from repro.sim import (
    RateObservation,
    SimResult,
    observations_from_rows,
    observations_to_rows,
    simulate_plan,
    simulate_workload,
)
from repro.units import Gbps, MiB, ns, us
from repro.workload import (
    available_policies,
    drifting_moe_trace,
    piecewise_stationary_trace,
    plan_workload,
    poisson_arrivals,
    poisson_multitenant_trace,
    steady_trace,
)


def base_scenario(n=16, message_mib=8.0):
    return Scenario.create(
        "allreduce_recursive_doubling",
        n=n,
        message_size=MiB(message_mib),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
        topology="ring",
        topology_options={"bidirectional": True},
    )


GENERATORS = (
    lambda base, seed: poisson_multitenant_trace(base, 10, seed=seed),
    lambda base, seed: drifting_moe_trace(base, 5, seed=seed),
    lambda base, seed: piecewise_stationary_trace(base, 3, 3, seed=seed),
)


class TestStochasticGenerators:
    @pytest.mark.parametrize("build", GENERATORS)
    def test_same_seed_byte_identical(self, build):
        base = base_scenario()
        assert build(base, 42).to_dict() == build(base, 42).to_dict()

    @pytest.mark.parametrize("build", GENERATORS)
    def test_different_seeds_differ(self, build):
        base = base_scenario()
        assert build(base, 1).to_dict() != build(base, 2).to_dict()

    def test_poisson_trace_always_opens_with_a_job(self):
        base = base_scenario()
        for seed in range(5):
            trace = poisson_multitenant_trace(base, 6, seed=seed)
            assert trace.phases[0].name.endswith("job0")

    def test_drifting_moe_alternates_and_drifts(self):
        base = base_scenario()
        trace = drifting_moe_trace(base, 6, seed=3)
        algos = [p.collective.algorithm for p in trace.phases]
        assert algos[0::2] == ["allreduce_recursive_doubling"] * 6
        assert algos[1::2] == ["alltoall"] * 6
        sizes = {p.collective.message_size for p in trace.phases[1::2]}
        assert len(sizes) > 1  # the dispatch volume actually moves

    def test_piecewise_constant_within_segments(self):
        base = base_scenario()
        trace = piecewise_stationary_trace(base, 3, 4, seed=9)
        sizes = [p.collective.message_size for p in trace.phases]
        for segment in range(3):
            chunk = sizes[segment * 4 : (segment + 1) * 4]
            assert len(set(chunk)) == 1
        assert len(set(sizes)) == 3

    def test_generator_validation(self):
        base = base_scenario()
        with pytest.raises(WorkloadError):
            poisson_arrivals(0.0, 10.0, seed=1)
        with pytest.raises(WorkloadError):
            poisson_multitenant_trace(base, 5, seed=1, mean_lifetime=0.0)
        with pytest.raises(WorkloadError):
            poisson_multitenant_trace(base, 5, seed=1, palette=())
        with pytest.raises(WorkloadError):
            drifting_moe_trace(base, 5, seed=1, experts=1)
        with pytest.raises(WorkloadError):
            piecewise_stationary_trace(
                base, 3, 3, seed=1, scale_range=(2.0, 1.0)
            )

    def test_poisson_interarrival_mean_within_ci(self):
        """With 5000 expected arrivals at rate 2, the empirical mean
        gap (1/2) has standard error 0.5/sqrt(N); five sigma keeps the
        seeded test deterministic AND meaningful."""
        rate, horizon = 2.0, 2500.0
        arrivals = poisson_arrivals(rate, horizon, seed=123)
        gaps = [
            b - a
            for a, b in zip((0.0,) + arrivals, arrivals)
        ]
        n = len(gaps)
        assert n > 4000
        mean = statistics.mean(gaps)
        se = (1.0 / rate) / math.sqrt(n)
        assert abs(mean - 1.0 / rate) < 5 * se


class TestTelemetryPayloads:
    """Stochastic traces and telemetry through the engine's payloads."""

    @pytest.mark.slow
    def test_simulated_workloads_repeat_identically_on_stochastic_traces(
        self,
    ):
        # The second run meets warm process-global memos (topologies,
        # skeletons, incidences); they must not change a payload.
        base = base_scenario(n=8, message_mib=1.0)
        workloads = [
            poisson_multitenant_trace(base, 6, seed=5),
            drifting_moe_trace(base, 3, seed=5),
        ]
        runs = []
        for _ in range(2):
            cache = ThroughputCache()
            runs.append(
                [
                    simulate_workload(w, policy="replan", cache=cache).to_dict()
                    for w in workloads
                ]
            )
        assert runs[0] == runs[1]

    def test_observed_rates_survive_a_json_round_trip(self):
        """Regression: SimResult.to_dict must carry rate observations,
        so the daemon's simulate responses deliver the telemetry."""
        scenarios = [
            base_scenario(n=8, message_mib=1.0),
            base_scenario(n=8, message_mib=4.0),
        ]
        cache = ThroughputCache()
        results = [
            simulate_plan(
                scenario,
                accounting="physical",
                observe_rates=True,
                cache=cache,
            )
            for scenario in scenarios
        ]
        for result in results:
            assert result.rate_observations  # the hook actually fired
            restored = SimResult.from_dict(
                json.loads(json.dumps(result.to_dict()))
            )
            assert restored.rate_observations == result.rate_observations

    def test_observations_stay_out_of_payloads_when_disabled(self):
        result = simulate_plan(
            base_scenario(n=8, message_mib=1.0), cache=ThroughputCache()
        )
        assert result.rate_observations == ()
        assert "rate_observations" not in result.to_dict()


class TestTriggers:
    def signal(self, **kwargs):
        defaults = dict(
            phase_index=0,
            phases_since_replan=1,
            estimate_gap=0.0,
            health_changed=False,
        )
        defaults.update(kwargs)
        return TriggerSignal(**defaults)

    def test_periodic(self):
        trigger = PeriodicTrigger(every=3)
        assert not trigger.should_replan(
            self.signal(phases_since_replan=2)
        )
        assert trigger.should_replan(self.signal(phases_since_replan=3))

    def test_drift_thresholds_on_gap(self):
        trigger = DriftTrigger(threshold=0.1)
        assert not trigger.should_replan(self.signal(estimate_gap=0.05))
        assert trigger.should_replan(self.signal(estimate_gap=0.2))

    def test_fault_fires_on_health_change_only(self):
        trigger = FaultTrigger()
        assert not trigger.should_replan(self.signal())
        assert trigger.should_replan(self.signal(health_changed=True))

    def test_compound_spec_parsing(self):
        trigger = make_trigger("drift+fault")
        assert isinstance(trigger, AnyTrigger)
        assert isinstance(make_trigger("never"), NeverTrigger)
        with pytest.raises(ControlError):
            make_trigger("sometimes")

    @pytest.mark.parametrize(
        "every", [2.5, math.nan, math.inf, 0, True, "3"],
        ids=["fractional", "nan", "inf", "zero", "bool", "str"],
    )
    def test_periodic_refuses_what_admission_refuses(self, every):
        with pytest.raises(ControlError, match="every must be a whole number"):
            PeriodicTrigger(every=every)
        assert PeriodicTrigger(every=4.0).every == 4

    @pytest.mark.parametrize(
        "threshold", [math.nan, math.inf, -0.1], ids=["nan", "inf", "negative"]
    )
    def test_drift_refuses_what_admission_refuses(self, threshold):
        with pytest.raises(ControlError, match="finite number >= 0"):
            DriftTrigger(threshold=threshold)
        with pytest.raises(ControlError):
            make_trigger("drift", drift_threshold=threshold)


class TestController:
    def test_mask_demand_zeroes_message_size_only(self):
        scenario = base_scenario()
        masked = mask_demand(scenario)
        assert masked.collective.message_size == 0.0
        assert masked.collective.algorithm == scenario.collective.algorithm
        assert masked.n == scenario.n

    @pytest.mark.parametrize(
        "options",
        [
            {"prior_message_size": math.nan},
            {"prior_message_size": math.inf},
            {"prior_message_size": 0.0},
            {"estimator": "window", "window": 2.5},
            {"estimator": "window", "window": math.nan},
            {"estimator": "window", "window": math.inf},
            {"beta": math.nan},
            {"beta": 1.5},
        ],
        ids=[
            "prior-nan",
            "prior-inf",
            "prior-zero",
            "window-fractional",
            "window-nan",
            "window-inf",
            "beta-nan",
            "beta-above-1",
        ],
    )
    def test_constructor_refuses_what_admission_refuses(self, options):
        with pytest.raises(ControlError):
            OnlineController(**options)

    @pytest.mark.parametrize(
        "window", [2.5, math.nan, math.inf, 0], ids=["fractional", "nan", "inf", "zero"]
    )
    def test_window_estimator_refuses_bad_windows(self, window):
        with pytest.raises(EstimationError, match="window must be a whole number"):
            SlidingWindowDemandEstimator(8, window=window)
        assert SlidingWindowDemandEstimator(8, window=3.0).window == 3

    def test_observe_before_decide_is_an_error(self):
        controller = OnlineController()
        with pytest.raises(ControlError):
            controller.observe([])

    def test_unseen_structure_always_plans(self):
        controller = OnlineController(trigger="never")
        decision = controller.decide(mask_demand(base_scenario()))
        assert decision.replanned
        assert controller.stats.structures == 1
        # Same structure again: the "never" trigger forbids replanning.
        second = controller.decide(mask_demand(base_scenario()))
        assert not second.replanned
        assert second.schedule == decision.schedule

    def test_online_policies_registered(self):
        names = available_policies()
        for name in ONLINE_POLICIES:
            assert name in names

    def test_controller_learns_true_scale_from_telemetry(self):
        """Decide -> execute -> observe on a steady phase: after one
        observation the message estimate equals the true size."""
        from repro.fabric.reconfiguration import (
            ConstantReconfigurationDelay,
        )
        from repro.sim.flowsim import FlowLevelSimulator

        scenario = base_scenario(n=8, message_mib=2.0)
        controller = OnlineController(
            reconfiguration_model=ConstantReconfigurationDelay(us(10)),
        )
        decision = controller.decide(mask_demand(scenario))
        simulator = FlowLevelSimulator(
            scenario.topology.build(),
            scenario.cost,
            rate_method="mcf",
            accounting="physical",
            reconfiguration_model=ConstantReconfigurationDelay(us(10)),
        )
        result = simulator.run(
            scenario.build_collective(),
            decision.schedule,
            observe_rates=True,
        )
        controller.observe(
            result.rate_observations, delta=scenario.cost.delta
        )
        structure, estimate = next(iter(controller.estimates().items()))
        assert estimate == pytest.approx(
            scenario.collective.message_size, rel=1e-9
        )


class TestRegret:
    def test_piecewise_regret_bounded_and_beats_static(self):
        """The closed-loop acceptance bar at n=16: on a
        piecewise-stationary trace the estimating controller is
        within 20% of the clairvoyant oracle and strictly beats the
        never-replanning floor."""
        base = base_scenario()
        workload = piecewise_stationary_trace(base, 3, 3, seed=11)
        report = measure_regret(workload, policy="online-ewma")
        assert report.oracle_total <= report.policy_total * (1 + 1e-12)
        assert report.efficiency >= 0.8
        assert report.beats_baseline
        assert report.policy_total < report.baseline_total
        # The cumulative-regret trajectory is monotone (regret is paid,
        # never refunded) and consistent with the totals.
        cumulative = [p.cumulative_regret for p in report.phases]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == pytest.approx(report.regret, rel=1e-9)

    def test_regret_rejects_oracle_as_policy(self):
        base = base_scenario()
        workload = piecewise_stationary_trace(base, 2, 2, seed=1)
        with pytest.raises(WorkloadError):
            measure_regret(workload, policy="oracle")

    def test_online_static_never_replans_structures(self):
        """The floor policy plans each structure once at the prior and
        never adapts — its plan is invariant to the realized sizes."""
        base = base_scenario()
        seen = piecewise_stationary_trace(base, 2, 2, seed=3)
        plan = plan_workload(seen, policy="online-static")
        schedules = [
            [str(d) for d in phase.decisions] for phase in plan.phases
        ]
        # All four phases share one structure, hence one schedule.
        assert all(s == schedules[0] for s in schedules)


class TestOnlineService:
    def scenario(self):
        return mask_demand(base_scenario(n=8, message_mib=1.0))

    def test_online_body_round_trip(self):
        rows = (
            (0, 1, 2, 1e9, 0.0, 1e-3, 1, "base"),
            (0, 2, 3, 5e8, 0.0, 2e-3, 1, "matched"),
        )
        body = OnlineBody(
            session="tenant-a",
            scenario=self.scenario(),
            seq=3,
            observations=rows,
        )
        data = ServiceRequest(body=body).to_dict()
        back = ServiceRequest.from_dict(data)
        assert back.body == body
        assert back.to_dict() == data
        # The rows parse into typed observations.
        parsed = observations_from_rows(back.body.observations)
        assert parsed[0].src == 1 and parsed[1].decision == "matched"

    def test_online_body_validation(self):
        with pytest.raises(Exception):
            OnlineBody(session="", scenario=self.scenario())
        with pytest.raises(Exception):
            OnlineBody(session="s", scenario=self.scenario(), seq=-1)
        request, error = try_validate(
            ServiceRequest(
                body=OnlineBody(
                    session="s",
                    scenario=self.scenario(),
                    policy="online-nope",
                )
            )
        )
        assert request is None and error.code == "validation"
        request, error = try_validate(
            ServiceRequest(
                body=OnlineBody(
                    session="s",
                    scenario=self.scenario(),
                    observations=((1.0, 2.0),),
                )
            )
        )
        assert request is None and "8" in error.message

    @pytest.mark.parametrize(
        "options",
        [
            {"bogus": 1},
            {"beta": "abc"},
            {"window": "x"},
            {"trigger": "nope"},
            {"beta": 5},
            {"beta": 0},
            {"beta": math.nan},
            {"window": 0},
            {"replan_every": 0},
            {"drift_threshold": math.nan},
            {"prior_message_size": -1},
            {"prior_message_size": math.nan},
            {"prior_message_size": math.inf},
            {"window": 2.5},
            {"replan_every": 1.9, "trigger": "periodic"},
            {"beta": True},
            {"beta": "0.5"},
            {"window": "4"},
            {"drift_threshold": math.inf},
        ],
        ids=[
            "unknown-name",
            "beta-str",
            "window-str",
            "trigger-unknown",
            "beta-above-1",
            "beta-0",
            "beta-nan",
            "window-0",
            "replan-every-0",
            "drift-threshold-nan",
            "prior-negative",
            "prior-nan",
            "prior-inf",
            "window-fractional",
            "replan-every-fractional",
            "beta-bool",
            "beta-numeric-str",
            "window-numeric-str",
            "drift-threshold-inf",
        ],
    )
    def test_daemon_refuses_a_bad_option(self, options):
        """The daemon's sessions parse options the way the online
        policies do, and refuse a bad one at admission."""

        async def drive():
            async with PlannerDaemon() as daemon:
                response = await daemon.submit(
                    ServiceRequest(
                        body=OnlineBody(
                            session="opts",
                            scenario=self.scenario(),
                            options=options,
                        )
                    )
                )
                return response, daemon.metrics()

        response, metrics = asyncio.run(drive())
        assert not response.ok and response.error.code == "validation"
        assert response.error.details == ("at body.options",)
        assert metrics["online"] == {"sessions": 0}
        with pytest.raises(ReproError):
            plan_workload(
                steady_trace(base_scenario(n=8), 2),
                policy="online-ewma",
                **options,
            )

    def test_online_options_refuse_booleans_and_fractional_counts(self):
        from repro.control.policy import _online_options

        parsed = _online_options(
            "online-window",
            {"window": 4.0, "replan_every": 2, "trigger": "periodic"},
        )
        assert parsed["window"] == 4 and type(parsed["window"]) is int
        assert parsed["trigger"] == PeriodicTrigger(every=2)
        for options, kind in (
            ({"window": 2.7}, "an integer"),
            ({"replan_every": 1.9, "trigger": "periodic"}, "an integer"),
            ({"window": math.inf}, "an integer"),
            ({"window": True}, "an integer"),
            ({"beta": True}, "a number"),
            ({"drift_threshold": False}, "a number"),
            ({"prior_message_size": True}, "a number"),
            ({"beta": "0.5"}, "a number"),
            ({"prior_message_size": "1048576"}, "a number"),
            ({"window": "4"}, "an integer"),
            ({"replan_every": "2", "trigger": "periodic"}, "an integer"),
        ):
            name = next(iter(options))
            with pytest.raises(WorkloadError, match=f"{name}' must be {kind}"):
                _online_options("online-window", options)

    def test_seq_breaks_coalescing_retries_do_not(self):
        body = OnlineBody(session="s", scenario=self.scenario(), seq=1)
        retry = OnlineBody(session="s", scenario=self.scenario(), seq=1)
        nxt = OnlineBody(session="s", scenario=self.scenario(), seq=2)
        fp = ServiceRequest(body=body).fingerprint()
        assert ServiceRequest(body=retry).fingerprint() == fp
        assert ServiceRequest(body=nxt).fingerprint() != fp

    def test_daemon_session_learns_from_observations(self):
        """Stream three steps through a daemon: the controller's
        estimate after telemetry equals the true message size the
        client realized (which the daemon itself never saw)."""
        from repro.core.schedule import Decision, Schedule
        from repro.fabric.reconfiguration import (
            ConstantReconfigurationDelay,
        )
        from repro.sim.flowsim import FlowLevelSimulator

        true = base_scenario(n=8, message_mib=2.0)
        model = ConstantReconfigurationDelay(
            true.cost.reconfiguration_delay
        )

        async def drive():
            daemon = await PlannerDaemon().start()
            try:
                rows, carried, results = (), None, []
                for seq in range(3):
                    response = await daemon.submit(
                        ServiceRequest(
                            body=OnlineBody(
                                session="learn",
                                scenario=mask_demand(true),
                                seq=seq,
                                observations=rows,
                            )
                        )
                    )
                    assert response.ok, response.error
                    results.append(response.result)
                    schedule = Schedule(
                        decisions=tuple(
                            Decision.MATCHED if d == "matched"
                            else Decision.BASE
                            for d in response.result["decision"][
                                "decisions"
                            ]
                        )
                    )
                    simulator = FlowLevelSimulator(
                        true.topology.build(),
                        true.cost,
                        rate_method="mcf",
                        accounting="physical",
                        reconfiguration_model=model,
                    )
                    sim = simulator.run(
                        true.build_collective(),
                        schedule,
                        initial_configuration=carried,
                        observe_rates=True,
                    )
                    carried = sim.final_configuration
                    rows = observations_to_rows(sim.rate_observations)
                snapshot = daemon.metrics()
                return results, snapshot
            finally:
                await daemon.stop()

        results, snapshot = asyncio.run(drive())
        assert results[0]["decision"]["replanned"]
        # After the first telemetry the estimate matches the realized
        # size the daemon never saw declared.
        assert results[1]["decision"]["message_estimate"] == pytest.approx(
            true.collective.message_size, rel=1e-9
        )
        assert snapshot["online"] == {"sessions": 1}
        assert results[-1]["stats"]["observations"] > 0


def simulate_decided_phase(true, decision, carried=None):
    """Run ``true`` under a daemon's decided schedule, observing rates."""
    from repro.core.schedule import Decision, Schedule
    from repro.fabric.reconfiguration import ConstantReconfigurationDelay
    from repro.sim.flowsim import FlowLevelSimulator

    schedule = Schedule(
        decisions=tuple(
            Decision.MATCHED if d == "matched" else Decision.BASE
            for d in decision["decisions"]
        )
    )
    simulator = FlowLevelSimulator(
        true.topology.build(),
        true.cost,
        rate_method="mcf",
        accounting="physical",
        reconfiguration_model=ConstantReconfigurationDelay(
            true.cost.reconfiguration_delay
        ),
    )
    return simulator.run(
        true.build_collective(),
        schedule,
        initial_configuration=carried,
        observe_rates=True,
    )


class TestMalformedTelemetry:
    """A telemetry row no simulator records is refused where it enters:
    ``RateObservation.from_row`` (every outside parser), the daemon's
    validator, and the estimator's fold."""

    GOOD = (0, 1, 2, 1e9, 0.0, 1e-3, 1.0, "base")

    @pytest.mark.parametrize(
        "field,value",
        [
            (0, True), (0, 1.5), (0, -1),
            (1, True), (1, 1.7), (1, -2),
            (2, False), (2, 0.5), (2, -1),
            (3, math.nan), (3, math.inf), (3, 0.0), (3, -1e12), (3, "1e9"),
            (4, math.nan), (4, -math.inf),
            (5, math.nan), (5, math.inf), (5, -1.0),
            (6, math.nan), (6, -1.0), (6, "1"),
            (7, "foo"), (7, None),
        ],
    )
    def test_from_row_rejects(self, field, value):
        row = list(self.GOOD)
        row[field] = value
        with pytest.raises(SimulationError):
            RateObservation.from_row(row)

    @pytest.mark.parametrize(
        "row",
        [
            RateObservation(0, 1, 2, math.nan, 0.0, 1e-3, 1.0, "base"),
            RateObservation(0, 1, 2, 1e9, 0.0, math.inf, 1.0, "base"),
        ],
    )
    def test_estimator_rejects_non_finite_volumes(self, row):
        with pytest.raises(EstimationError):
            demand_from_observations([row], 4)

    @pytest.mark.parametrize(
        "field,value",
        [
            (3, math.nan),
            (5, math.nan),
            (3, -1e12),
            (1, 1.7),
            (1, True),
            (7, "foo"),
            (6, -3.0),
            (3, "fast"),
        ],
    )
    def test_daemon_refuses_the_row_and_the_session_survives(self, field, value):
        true = base_scenario(n=8, message_mib=2.0)

        async def drive():
            daemon = await PlannerDaemon().start()
            try:

                def step(seq, rows):
                    body = OnlineBody(
                        session="poison",
                        scenario=mask_demand(true),
                        seq=seq,
                        observations=rows,
                    )
                    return daemon.submit(ServiceRequest(body=body))

                first = await step(0, ())
                assert first.ok, first.error
                sim = simulate_decided_phase(true, first.result["decision"])
                rows = observations_to_rows(sim.rate_observations)
                bad = [list(row) for row in rows]
                bad[0][field] = value
                refused = await step(1, bad)
                clean = await step(2, rows)
                return refused, clean
            finally:
                await daemon.stop()

        refused, clean = asyncio.run(drive())
        assert not refused.ok and refused.error.code == "validation"
        assert "observation row 0" in refused.error.message
        assert clean.ok, clean.error
        assert clean.result["decision"]["message_estimate"] == pytest.approx(
            true.collective.message_size, rel=1e-9
        )
