"""PlannerDaemon behavior: coalescing, cache residency, error isolation.

The acceptance criteria of planner-as-a-service live here:

* two identical concurrent in-flight requests produce exactly ONE
  solver invocation (proved with a counting solver registered for the
  test, plus the daemon's dispatched/coalesced counters);
* a warm-cache repeat completes with zero new theta misses — no LP is
  ever re-solved for a seen scenario fingerprint;
* a malformed request and a mid-batch solver exception each produce a
  typed error response for that request alone; every other in-flight
  request completes normally.
"""

from __future__ import annotations

import asyncio
import math
import threading

import pytest

from repro.exceptions import ConfigurationError, ScheduleError
from repro.fabric import ConstantReconfigurationDelay
from repro.flows import ThroughputCache
from repro.planner import CollectiveSpec, Scenario, plan, register_solver
from repro.planner.registry import unregister_solver
from repro.service import daemon as daemon_mod
from repro.service import (
    DegradationBody,
    MetricsBody,
    PlanBatchBody,
    PlanBody,
    PlannerDaemon,
    ServiceRequest,
    SimulateBody,
    WorkloadBody,
)
from repro.units import Gbps, KiB, MiB, ns, us
from repro.workload import steady_trace


def run(coro):
    return asyncio.run(coro)


def scenario(n=8, msg_kib=64.0, algorithm="allreduce_ring"):
    return Scenario.create(
        algorithm,
        n=n,
        message_size=KiB(msg_kib),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )


def plan_request(sc, **kwargs) -> ServiceRequest:
    return ServiceRequest(body=PlanBody(scenario=sc, **kwargs))


class CountingSolver:
    """A registered solver that counts invocations and can block.

    ``gate`` (when set) holds every solve until released, guaranteeing
    the duplicate request arrives while the first is still in flight.
    """

    def __init__(self, gate: threading.Event | None = None):
        self.calls = 0
        self.lock = threading.Lock()
        self.gate = gate

    def __call__(self, request, cache):
        with self.lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        result = plan(request.scenario, solver="dp", cache=cache)
        return result


@pytest.fixture
def counting_solver():
    solver = CountingSolver()
    register_solver("counting", solver)
    yield solver
    unregister_solver("counting")


@pytest.fixture
def gated_solver():
    gate = threading.Event()
    solver = CountingSolver(gate=gate)
    register_solver("gated", solver)
    yield solver, gate
    unregister_solver("gated")


class TestCoalescing:
    def test_identical_concurrent_requests_one_solver_invocation(
        self, gated_solver
    ):
        solver, gate = gated_solver
        cache = ThroughputCache()

        async def main():
            # No batch window: each submit dispatches immediately, so
            # the second identical request genuinely races the first.
            async with PlannerDaemon(cache=cache, batch_window_s=0.0) as daemon:
                sc = scenario()
                first = asyncio.ensure_future(
                    daemon.submit(plan_request(sc, solver="gated"))
                )
                second = asyncio.ensure_future(
                    daemon.submit(plan_request(sc, solver="gated"))
                )
                # Let both admissions reach the coalescing map before
                # releasing the solve.
                await asyncio.sleep(0.05)
                gate.set()
                r1, r2 = await asyncio.gather(first, second)
                return r1, r2, daemon.metrics()

        r1, r2, metrics = run(main())
        assert r1.ok and r2.ok
        assert solver.calls == 1  # exactly one solver invocation
        assert metrics["dispatched"] == 1
        assert metrics["coalesced"] == 1
        assert [r1.coalesced, r2.coalesced].count(True) == 1
        assert r1.result == r2.result

    def test_different_requests_do_not_coalesce(self, counting_solver):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                await asyncio.gather(
                    daemon.submit(plan_request(scenario(n=4), solver="counting")),
                    daemon.submit(plan_request(scenario(n=8), solver="counting")),
                )
                return daemon.metrics()

        metrics = run(main())
        assert metrics["coalesced"] == 0
        assert counting_solver.calls == 2

    def test_sequential_repeats_do_not_coalesce_but_stay_warm(self):
        cache = ThroughputCache()

        async def main():
            async with PlannerDaemon(cache=cache, batch_window_s=0.0) as daemon:
                sc = scenario()
                first = await daemon.submit(plan_request(sc))
                cold = daemon.metrics()["cache"]
                second = await daemon.submit(plan_request(sc))
                warm = daemon.metrics()["cache"]
                return first, second, cold, warm

        first, second, cold, warm = run(main())
        assert first.ok and second.ok and not second.coalesced
        assert cold["misses"] >= 1
        # The resident cache makes the repeat O(lookup): zero new theta
        # solves for a fingerprint the daemon has already seen.
        assert warm["misses"] == cold["misses"]
        assert first.result == second.result


class TestCacheResidency:
    def test_disk_store_attached_when_directory_given(self, tmp_path):
        async def main():
            async with PlannerDaemon(cache_dir=tmp_path) as daemon:
                await daemon.submit(plan_request(scenario()))
                return daemon.metrics()

        metrics = run(main())
        assert metrics["store"] is not None
        assert metrics["store"]["entries"] >= 1

    def test_new_daemon_warm_from_disk_zero_solves(self, tmp_path):
        async def cold():
            async with PlannerDaemon(cache_dir=tmp_path) as daemon:
                await daemon.submit(plan_request(scenario()))

        async def warm():
            async with PlannerDaemon(cache_dir=tmp_path) as daemon:
                response = await daemon.submit(plan_request(scenario()))
                return response, daemon.metrics()["cache"]

        run(cold())
        response, cache = run(warm())
        assert response.ok
        assert cache["misses"] == 0  # every theta came from the store
        assert cache["disk_hits"] >= 1


    def test_own_cache_is_bounded(self, monkeypatch):
        # A daemon fed never-repeating work must not grow its resident
        # cache for its whole life; eviction must not change answers.
        monkeypatch.setattr(daemon_mod, "_RESIDENT_CACHE_MAX", 4)
        scenarios = [
            scenario(n=n, algorithm=algorithm)
            for n in (8, 16, 32)
            for algorithm in ("allreduce_ring", "allreduce_recursive_doubling")
        ]

        async def serve(daemon):
            async with daemon:
                results, sizes = [], []
                for sc in scenarios:
                    response = await daemon.submit(plan_request(sc))
                    assert response.ok
                    # Everything but the cache's own counters.
                    response.result.pop("cache_stats")
                    results.append(response.result)
                    sizes.append(len(daemon.cache))
                return results, sizes, daemon.metrics()["cache"]

        capped, sizes, stats = run(serve(PlannerDaemon(batch_window_s=0.0)))
        uncapped, _, _ = run(
            serve(PlannerDaemon(cache=ThroughputCache(), batch_window_s=0.0))
        )
        assert max(sizes) <= 4
        assert stats["evictions"] > 0
        assert capped == uncapped


class TestErrorIsolation:
    def test_malformed_request_typed_error_and_daemon_survives(self):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                bad, good = await asyncio.gather(
                    daemon.submit({"kind": "plan", "body": {"scenario": 42}}),
                    daemon.submit(plan_request(scenario(n=4))),
                )
                after = await daemon.submit(plan_request(scenario(n=4)))
                return bad, good, after, daemon.metrics()

        bad, good, after, metrics = run(main())
        assert not bad.ok and bad.error.code == "validation"
        assert good.ok and after.ok
        assert metrics["validation_errors"] == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", math.nan),
            ("delta", math.nan),
            ("reconfiguration_delay", math.inf),
        ],
    )
    def test_non_finite_cost_is_refused_at_admission(self, field, value):
        data = plan_request(scenario(n=8)).to_dict()
        data["body"]["scenario"]["cost"][field] = value

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(data), daemon.metrics()

        response, metrics = run(main())
        assert not response.ok and response.error.code == "validation"
        assert f"{field} must be a finite number >= 0" in response.error.message
        assert metrics["validation_errors"] == 1 and metrics["dispatched"] == 0

    @pytest.mark.parametrize(
        "sides", [("topology",), ("cost",), ("topology", "cost")]
    )
    def test_infinite_bandwidth_is_refused_at_admission(self, sides):
        data = plan_request(scenario(n=8)).to_dict()
        for side in sides:
            data["body"]["scenario"][side]["bandwidth"] = math.inf

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(data), daemon.metrics()

        response, metrics = run(main())
        assert not response.ok and response.error.code == "validation"
        assert metrics["validation_errors"] == 1 and metrics["dispatched"] == 0

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"kind": "constant", "alpha_r": math.nan}, "alpha_r must be a finite"),
            ({"kind": "constant", "alpha_r": math.inf}, "alpha_r must be a finite"),
            ({"kind": "constant"}, "missing the 'alpha_r' field"),
        ],
        ids=["nan", "inf", "missing"],
    )
    def test_bad_workload_delay_model_is_refused_at_admission(self, model, message):
        data = ServiceRequest(
            body=WorkloadBody(workload=steady_trace(scenario(n=4), 2))
        ).to_dict()
        data["body"]["reconfiguration_model"] = model

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(data), daemon.metrics()

        response, metrics = run(main())
        assert not response.ok and response.error.code == "validation"
        assert message in response.error.message
        assert metrics["validation_errors"] == 1 and metrics["dispatched"] == 0

    def test_mid_batch_solver_exception_fails_only_its_request(self):
        def failing(request, cache):
            if request.scenario.n == 4:
                raise ScheduleError("injected mid-batch failure")
            return plan(request.scenario, solver="dp", cache=cache)

        register_solver("failing", failing)
        try:

            async def main():
                # A wide window so all three land in ONE micro-batch.
                async with PlannerDaemon(batch_window_s=0.05) as daemon:
                    responses = await asyncio.gather(
                        daemon.submit(plan_request(scenario(n=8), solver="failing")),
                        daemon.submit(plan_request(scenario(n=4), solver="failing")),
                        daemon.submit(plan_request(scenario(n=16), solver="failing")),
                    )
                    return responses, daemon.metrics()

            (ok8, fail4, ok16), metrics = run(main())
        finally:
            unregister_solver("failing")
        assert metrics["batches"] == 1 and metrics["largest_batch"] == 3
        assert ok8.ok and ok16.ok
        assert not fail4.ok
        assert fail4.error.code == "solver"
        assert "injected mid-batch failure" in fail4.error.message
        assert metrics["solver_errors"] == 1

    def test_plan_batch_answers_its_failing_item_or_all_results(self):
        def failing(request, cache):
            if request.scenario.n == 8:
                raise ScheduleError("injected batch-item failure")
            return plan(request.scenario, solver="dp", cache=cache)

        sizes = (4, 8, 16)

        def batch(solver):
            return ServiceRequest(
                body=PlanBatchBody(
                    scenarios=tuple(scenario(n=n) for n in sizes),
                    solver=solver,
                )
            )

        register_solver("batch-failing", failing)
        try:

            async def main():
                async with PlannerDaemon() as daemon:
                    failed = await daemon.submit(batch("batch-failing"))
                    clean = await daemon.submit(batch("dp"))
                    return failed, clean, daemon.metrics()

            failed, clean, metrics = run(main())
        finally:
            unregister_solver("batch-failing")
        assert not failed.ok and failed.result is None
        assert failed.error.code == "solver"
        assert failed.error.message == "ScheduleError: injected batch-item failure"
        assert metrics["solver_errors"] == 1
        assert clean.ok and clean.result["count"] == len(sizes)
        assert [r["scenario"] for r in clean.result["results"]] == [
            scenario(n=n).to_dict() for n in sizes
        ]
        assert [r["total_time"] for r in clean.result["results"]] == [
            plan(scenario(n=n), cache=ThroughputCache()).total_time
            for n in sizes
        ]

    @pytest.mark.parametrize("path", ["micro-batch", "stream", "plan_batch"])
    def test_aborted_batch_replans_only_its_undelivered_items(self, path):
        """Every plan batch is one ``plan_many`` pass; when it aborts,
        only the items it never delivered are planned again."""
        calls = []
        lock = threading.Lock()

        def failing(request, cache):
            size = request.scenario.collective.message_size
            with lock:
                calls.append(size)
            if size == KiB(128):
                raise ScheduleError("injected batch-item failure")
            return plan(request.scenario, solver="dp", cache=cache)

        # One theta affinity, so the micro-batch keeps admission order.
        scenarios = [scenario(msg_kib=kib) for kib in (64, 128, 256)]
        register_solver("counted-failing", failing)
        try:

            async def main():
                async with PlannerDaemon(batch_window_s=0.05) as daemon:
                    if path == "micro-batch":
                        return await asyncio.gather(
                            *(
                                daemon.submit(
                                    plan_request(sc, solver="counted-failing")
                                )
                                for sc in scenarios
                            )
                        )
                    request = ServiceRequest(
                        body=PlanBatchBody(
                            scenarios=tuple(scenarios), solver="counted-failing"
                        )
                    )
                    if path == "stream":
                        return [c async for c in daemon.submit_stream(request)]
                    return [await daemon.submit(request)]

            responses = run(main())
        finally:
            unregister_solver("counted-failing")
        assert [r.error.code for r in responses if not r.ok] == (
            ["solver", "solver"] if path == "stream" else ["solver"]
        )
        # The pass delivers 64 KiB and aborts at 128 KiB.
        assert calls == [KiB(64), KiB(128), KiB(128), KiB(256)]

    def test_bad_collective_option_is_a_solver_error(self):
        bad = scenario(n=8).replace(
            collective=CollectiveSpec("allreduce_ring", KiB(64), {"root": 1})
        )

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(plan_request(bad))

        response = run(main())
        assert not response.ok
        assert response.error.code == "solver"
        assert "bad options" in response.error.message

    def test_non_finite_message_size_is_rejected(self):
        requests = []
        for size in (float("nan"), float("inf")):
            data = plan_request(scenario(n=8, algorithm="alltoall")).to_dict()
            data["body"]["scenario"]["collective"]["message_size"] = size
            requests.append(data)

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await asyncio.gather(*map(daemon.submit, requests))

        for response in run(main()):
            assert not response.ok
            assert response.error.code == "validation"
            assert "message_size" in response.error.message

    @pytest.mark.parametrize(
        "solver, options",
        [
            ("overlap", {"compute_times": float("nan")}),
            ("avoid", {"min_health": "abc"}),
            ("pool", {"initial_pool_index": "x"}),
            ("pool", {"reconfiguration_model": {"kind": "constant"}}),
        ],
        ids=["compute_times-nan", "min_health-str", "pool_index-str", "model-dict"],
    )
    def test_malformed_solver_option_is_a_solver_error(self, solver, options):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(
                    plan_request(scenario(n=8), solver=solver, options=options)
                )

        response = run(main())
        assert not response.ok
        assert response.error.code == "solver"

    @pytest.mark.parametrize(
        "threshold", ["abc", float("nan"), float("inf"), True, -1.0]
    )
    def test_bad_hysteresis_threshold_is_a_solver_error(self, threshold):
        body = WorkloadBody(
            workload=steady_trace(scenario(n=4), phases=2),
            policy="hysteresis",
            options={"threshold": threshold},
        )

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(ServiceRequest(body=body))

        response = run(main())
        assert not response.ok
        assert response.error.code == "solver"
        assert "threshold must be a finite number >= 0" in response.error.message

    @pytest.mark.parametrize(
        "kind, name",
        [("simulate", n) for n in ("rate_method", "accounting")]
        + [("workload", n) for n in ("policy", "reconfiguration_model")]
        + [
            (kind, n)
            for kind in ("simulate", "workload")
            for n in ("item", "solver", "cache", "check_model")
        ],
    )
    def test_executor_arguments_are_refused_as_options(self, kind, name):
        # The daemon passes these to simulate_plan / simulate_workload
        # itself: as an option one would be bound twice (a TypeError in
        # the worker) or switch off the sim-equals-model check.
        sc = scenario(n=4)
        if kind == "simulate":
            body = SimulateBody(scenario=sc, options={name: None})
        else:
            body = WorkloadBody(workload=steady_trace(sc, 2), options={name: None})

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(ServiceRequest(body=body)), daemon.metrics()

        response, metrics = run(main())
        assert not response.ok and response.error.code == "validation"
        assert name in response.error.message
        assert "at body.options" in response.error.details
        assert metrics["validation_errors"] == 1 and metrics["dispatched"] == 0

    def test_policy_options_still_reach_the_policy(self):
        body = WorkloadBody(
            workload=steady_trace(scenario(n=4), phases=2),
            policy="hysteresis",
            options={"threshold": 0.1},
        )

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(ServiceRequest(body=body))

        response = run(main())
        assert response.ok, response.error

    def test_pool_reconfiguration_model_as_a_dict(self):
        options = {"reconfiguration_model": {"kind": "constant", "alpha_r": us(5)}}

        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(
                    plan_request(scenario(n=8), solver="pool", options=options)
                )

        response = run(main())
        assert response.ok
        expected = plan(
            scenario(n=8),
            solver="pool",
            reconfiguration_model=ConstantReconfigurationDelay(us(5)),
        )
        assert response.result["total_time"] == expected.total_time

    def test_internal_error_code_for_unexpected_exceptions(self):
        def broken(request, cache):
            raise ZeroDivisionError("not a ReproError")

        register_solver("broken", broken)
        try:

            async def main():
                async with PlannerDaemon(batch_window_s=0.0) as daemon:
                    return await daemon.submit(
                        plan_request(scenario(n=4), solver="broken")
                    )

            response = run(main())
        finally:
            unregister_solver("broken")
        assert not response.ok
        assert response.error.code == "internal"
        assert "ZeroDivisionError" in response.error.message


class TestBatchingAndPriority:
    def test_window_collects_concurrent_plans_into_one_batch(self):
        async def main():
            async with PlannerDaemon(batch_window_s=0.05) as daemon:
                await asyncio.gather(
                    *(
                        daemon.submit(plan_request(scenario(n=n)))
                        for n in (4, 8, 16)
                    )
                )
                return daemon.metrics()

        metrics = run(main())
        assert metrics["batches"] == 1
        assert metrics["batched_requests"] == 3

    def test_max_batch_forces_immediate_flush(self):
        async def main():
            # Window long enough that only max_batch can trigger.
            async with PlannerDaemon(batch_window_s=5.0, max_batch=2) as daemon:
                await asyncio.gather(
                    daemon.submit(plan_request(scenario(n=4))),
                    daemon.submit(plan_request(scenario(n=8))),
                )
                return daemon.metrics()

        metrics = run(main())
        assert metrics["batches"] == 1
        assert metrics["largest_batch"] == 2

    def test_priority_orders_within_batch(self):
        order = []
        lock = threading.Lock()

        def recording(request, cache):
            with lock:
                order.append(request.scenario.n)
            return plan(request.scenario, solver="dp", cache=cache)

        register_solver("recording", recording)
        try:

            async def main():
                async with PlannerDaemon(
                    batch_window_s=0.05, workers=1
                ) as daemon:
                    await asyncio.gather(
                        daemon.submit(
                            ServiceRequest(
                                body=PlanBody(
                                    scenario=scenario(n=4), solver="recording"
                                ),
                                priority=0,
                            )
                        ),
                        daemon.submit(
                            ServiceRequest(
                                body=PlanBody(
                                    scenario=scenario(n=8), solver="recording"
                                ),
                                priority=5,
                            )
                        ),
                    )

            run(main())
        finally:
            unregister_solver("recording")
        assert order == [8, 4]  # higher priority solved first


class TestDeadlines:
    def test_expired_deadline_rejected_without_solving(self, counting_solver):
        async def main():
            # A long window guarantees the deadline passes in queue.
            async with PlannerDaemon(batch_window_s=0.1) as daemon:
                request = ServiceRequest(
                    body=PlanBody(scenario=scenario(), solver="counting"),
                    deadline_s=0.01,
                )
                response = await daemon.submit(request)
                return response, daemon.metrics()

        response, metrics = run(main())
        assert not response.ok
        assert response.error.code == "deadline"
        assert metrics["deadline_errors"] == 1
        assert counting_solver.calls == 0

    def test_generous_deadline_succeeds(self):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(
                    ServiceRequest(
                        body=PlanBody(scenario=scenario()), deadline_s=60.0
                    )
                )

        assert run(main()).ok


class TestOtherKinds:
    def test_simulate_workload_degradation_metrics(self):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                sc = scenario(n=4)
                simulate, workload, degradation = await asyncio.gather(
                    daemon.submit(
                        ServiceRequest(body=SimulateBody(scenario=sc))
                    ),
                    daemon.submit(
                        ServiceRequest(
                            body=WorkloadBody(
                                workload=steady_trace(sc, phases=2)
                            )
                        )
                    ),
                    daemon.submit(
                        ServiceRequest(
                            body=DegradationBody(scenario=sc, solvers=("dp",))
                        )
                    ),
                )
                metrics = await daemon.submit(
                    ServiceRequest(body=MetricsBody())
                )
                return simulate, workload, degradation, metrics

        simulate, workload, degradation, metrics = run(main())
        assert simulate.ok and "sim_time" in simulate.result
        assert workload.ok and "phases" in workload.result
        assert degradation.ok and degradation.result["cells"]
        assert metrics.ok
        assert metrics.result["completed"] >= 3
        latency = metrics.result["requests"]
        assert {"simulate", "workload", "degradation"} <= set(latency)
        assert latency["simulate"]["count"] == 1
        assert latency["simulate"]["p50_ms"] > 0

    def test_simulate_executes_an_overlap_plan_with_its_compute(self):
        async def main():
            async with PlannerDaemon(batch_window_s=0.0) as daemon:
                return await daemon.submit(
                    ServiceRequest(
                        body=SimulateBody(
                            scenario=scenario(
                                n=8, msg_kib=1024, algorithm="allreduce_swing"
                            ),
                            solver="overlap",
                            options={"compute_times": us(30)},
                        )
                    )
                )

        response = run(main())
        assert response.ok, response.error
        result = response.result
        assert result["plan"]["metadata"] == {"compute_times": us(30)}
        assert result["sim_time"] == pytest.approx(
            result["analytic_time"], rel=1e-9
        )

    def test_response_version_matches_library(self):
        import repro

        async def main():
            async with PlannerDaemon() as daemon:
                return await daemon.submit(ServiceRequest(body=MetricsBody()))

        assert run(main()).version == repro.__version__


class TestStreaming:
    def test_stream_chunks_in_input_order_then_summary(self):
        async def main():
            async with PlannerDaemon() as daemon:
                request = ServiceRequest(
                    body=PlanBatchBody(
                        scenarios=tuple(scenario(n=n) for n in (4, 8, 16))
                    )
                )
                chunks = []
                async for response in daemon.submit_stream(request):
                    chunks.append(response)
                return chunks, daemon.metrics()

        chunks, metrics = run(main())
        assert [c.seq for c in chunks] == [0, 1, 2, None]
        assert all(c.ok for c in chunks)
        assert not chunks[-1].final is False
        assert chunks[-1].result == {"count": 3, "ok": 3, "errors": 0}
        assert metrics["streams"] == 1
        assert metrics["stream_chunks"] == 3

    def test_stream_isolates_failing_item(self):
        def failing(request, cache):
            if request.scenario.n == 8:
                raise ScheduleError("stream casualty")
            return plan(request.scenario, solver="dp", cache=cache)

        register_solver("stream-failing", failing)
        try:

            async def main():
                async with PlannerDaemon() as daemon:
                    request = ServiceRequest(
                        body=PlanBatchBody(
                            scenarios=tuple(
                                scenario(n=n) for n in (4, 8, 16)
                            ),
                            solver="stream-failing",
                        )
                    )
                    return [
                        chunk
                        async for chunk in daemon.submit_stream(request)
                    ]

            chunks = run(main())
        finally:
            unregister_solver("stream-failing")
        by_seq = {c.seq: c for c in chunks}
        assert by_seq[0].ok and by_seq[2].ok
        assert not by_seq[1].ok and by_seq[1].error.code == "solver"
        summary = by_seq[None]
        assert not summary.ok
        assert "1 of 3" in summary.error.message

    def test_stream_of_malformed_request_yields_one_error(self):
        async def main():
            async with PlannerDaemon() as daemon:
                return [
                    chunk
                    async for chunk in daemon.submit_stream(
                        {"kind": "plan_batch", "body": {"scenarios": "nope"}}
                    )
                ]

        chunks = run(main())
        assert len(chunks) == 1
        assert not chunks[0].ok and chunks[0].error.code == "validation"


class TestLifecycle:
    @pytest.mark.parametrize(
        "field, value",
        [("batch_window_s", v) for v in (-1, math.nan, math.inf, True)]
        + [(f, v) for f in ("max_batch", "workers") for v in (0, True, 2.5)],
    )
    def test_constructor_validation(self, tmp_path, field, value):
        # An infinite or NaN window would hold every plan until
        # max_batch plans are pending, a boolean would run a 1 s window,
        # and a truncated count would run 2.5 workers as 2.  Refused
        # before the disk store is built.
        rule = "whole number >= 1"
        if field == "batch_window_s":
            rule = "finite number >= 0"
        store = tmp_path / "store"
        with pytest.raises(ConfigurationError, match=f"{field} must be a {rule}"):
            PlannerDaemon(cache_dir=str(store), **{field: value})
        assert not store.exists()

    def test_stop_flushes_pending_work(self):
        async def main():
            daemon = PlannerDaemon(batch_window_s=10.0)  # never fires alone
            await daemon.start()
            pending = asyncio.ensure_future(
                daemon.submit(plan_request(scenario()))
            )
            await asyncio.sleep(0.02)
            await daemon.stop()
            return await pending

        response = run(main())
        assert response.ok

    def test_restart_on_fresh_loop(self):
        daemon = PlannerDaemon(batch_window_s=0.0)

        async def one_round():
            async with daemon:
                return await daemon.submit(plan_request(scenario(n=4)))

        assert run(one_round()).ok
        assert run(one_round()).ok  # new event loop, same daemon
