"""Service envelope schemas: round-tripping and admission validation.

The wire contract of planner-as-a-service is ``to_dict``/``from_dict``
being exact inverses for every request/response variant — including
scenarios carrying degraded :class:`~repro.fabric.FabricHealth` — plus
the validator rejecting anything malformed *before* a solver runs.
Property-based (hypothesis) over the scenario/envelope space.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.fabric import hotspot, random_failures, uniform_degradation
from repro.fabric.reconfiguration import PerPortReconfigurationDelay
from repro.planner import Scenario
from repro.service import (
    REQUEST_KINDS,
    DegradationBody,
    MetricsBody,
    PlanBatchBody,
    PlanBody,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
    SimulateBody,
    ValidationError,
    WorkloadBody,
    try_validate,
    validate_request,
)
from repro.units import Gbps, KiB, MiB, ns, us
from repro.workload import bursty_trace, steady_trace

# -- strategies --------------------------------------------------------------

ALGORITHMS = (
    "allreduce_ring",
    "allreduce_recursive_doubling",
    "allgather_ring",
    "alltoall",
)


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.sampled_from((4, 8, 16)))
    algorithm = draw(st.sampled_from(ALGORITHMS))
    health_kind = draw(
        st.sampled_from(("pristine", "uniform", "failures", "hotspot"))
    )
    if health_kind == "uniform":
        health = uniform_degradation(n, draw(st.sampled_from((0.5, 0.8))))
    elif health_kind == "failures":
        health = random_failures(n, seed=draw(st.integers(0, 5)))
    elif health_kind == "hotspot":
        health = hotspot(n, severity=0.5)
    else:
        health = None
    return Scenario.create(
        algorithm,
        n=n,
        message_size=draw(st.sampled_from((KiB(64), MiB(1), MiB(64)))),
        bandwidth=Gbps(draw(st.sampled_from((400.0, 800.0)))),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(draw(st.sampled_from((1.0, 10.0, 100.0)))),
        health=health,
    )


@st.composite
def bodies(draw):
    kind = draw(st.sampled_from(REQUEST_KINDS))
    if kind == "plan":
        return PlanBody(
            scenario=draw(scenarios()),
            solver=draw(st.sampled_from(("dp", "greedy"))),
            options=draw(st.sampled_from(({}, {"pool_size": 2}))),
        )
    if kind == "plan_batch":
        return PlanBatchBody(
            scenarios=tuple(
                draw(st.lists(scenarios(), min_size=1, max_size=3))
            ),
            solver="dp",
        )
    if kind == "simulate":
        return SimulateBody(
            scenario=draw(scenarios()),
            rate_method=draw(st.sampled_from(("mcf", "maxmin"))),
            accounting=draw(st.sampled_from(("paper", "physical"))),
        )
    if kind == "workload":
        base = draw(scenarios())
        trace = draw(st.sampled_from((steady_trace, bursty_trace)))
        return WorkloadBody(
            workload=trace(base, phases=draw(st.sampled_from((2, 3)))),
            policy=draw(st.sampled_from(("replan", "hysteresis"))),
            reconfiguration_model=draw(
                st.sampled_from(
                    (None, PerPortReconfigurationDelay(us(1), ns(500)))
                )
            ),
        )
    if kind == "degradation":
        return DegradationBody(
            scenario=draw(scenarios()),
            seed=draw(st.integers(0, 100)),
            solvers=draw(st.sampled_from((("dp",), ("dp", "avoid")))),
        )
    return MetricsBody()


@st.composite
def requests(draw) -> ServiceRequest:
    return ServiceRequest(
        body=draw(bodies()),
        id=draw(st.sampled_from(("", "abc123", "req-7"))),
        priority=draw(st.integers(-2, 2)),
        deadline_s=draw(st.sampled_from((None, 0.5, 30.0))),
    )


# -- round-tripping ----------------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(requests())
    def test_request_roundtrip_exact(self, request):
        data = request.to_dict()
        # The wire dict must be JSON-serializable as-is.
        rebuilt = ServiceRequest.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == request
        assert rebuilt.to_dict() == data

    @settings(max_examples=40, deadline=None)
    @given(requests())
    def test_fingerprint_ignores_envelope_but_not_body(self, request):
        relabeled = ServiceRequest(
            body=request.body, id="other", priority=9, deadline_s=1.0
        )
        assert relabeled.fingerprint() == request.fingerprint()

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_fingerprint_distinguishes_bodies(self, data):
        a = data.draw(bodies())
        b = data.draw(bodies())
        fp_a = ServiceRequest(body=a).fingerprint()
        fp_b = ServiceRequest(body=b).fingerprint()
        assert (fp_a == fp_b) == (a.to_dict() == b.to_dict() and a.kind == b.kind)

    def test_response_roundtrip_ok_and_error(self):
        ok = ServiceResponse(
            id="a", kind="plan", ok=True, result={"x": 1}, elapsed_s=0.25,
            coalesced=True, seq=3, final=False,
        )
        err = ServiceResponse(
            id="b",
            kind="simulate",
            ok=False,
            error=ServiceError(code="solver", message="boom", details=("d1",)),
        )
        for response in (ok, err):
            data = json.loads(json.dumps(response.to_dict()))
            assert ServiceResponse.from_dict(data) == response

    def test_response_ok_error_consistency(self):
        with pytest.raises(ConfigurationError):
            ServiceResponse(id="a", kind="plan", ok=True,
                            error=ServiceError(code="solver", message="x"))
        with pytest.raises(ConfigurationError):
            ServiceResponse(id="a", kind="plan", ok=False)

    def test_empty_id_gets_generated(self):
        request = ServiceRequest(body=MetricsBody())
        assert request.id
        assert request.with_id("fixed").id == "fixed"


# -- validation --------------------------------------------------------------


class TestValidator:
    def test_accepts_valid_mapping(self, small_scenario):
        request = validate_request(
            {"kind": "plan", "body": {"scenario": small_scenario.to_dict()}}
        )
        assert isinstance(request.body, PlanBody)

    @pytest.mark.parametrize(
        "payload, path",
        [
            ({"kind": "nope", "body": {}}, "kind"),
            ({"kind": "plan", "id": 7, "body": {}}, "id"),
            ({"kind": "plan", "priority": "high", "body": {}}, "priority"),
            ({"kind": "plan", "deadline_s": -1, "body": {}}, "deadline_s"),
            ({"kind": "plan", "deadline_s": True, "body": {}}, "deadline_s"),
            ({"kind": "plan", "body": 42}, "body"),
        ],
    )
    def test_rejects_bad_envelope_with_path(self, payload, path):
        with pytest.raises(ValidationError) as excinfo:
            validate_request(payload)
        assert excinfo.value.path == path

    def test_rejects_unknown_body_keys(self, small_scenario):
        with pytest.raises(ValidationError):
            validate_request(
                {
                    "kind": "plan",
                    "body": {
                        "scenario": small_scenario.to_dict(),
                        "bogus": 1,
                    },
                }
            )

    def test_rejects_unknown_solver_policy_rate_method(self, small_scenario):
        scenario = small_scenario.to_dict()
        for payload, path in [
            (
                {"kind": "plan", "body": {"scenario": scenario,
                                          "solver": "nope"}},
                "body.solver",
            ),
            (
                {"kind": "simulate", "body": {"scenario": scenario,
                                              "rate_method": "nope"}},
                "body.rate_method",
            ),
            (
                {"kind": "degradation", "body": {"scenario": scenario,
                                                 "solvers": ["dp", "nope"]}},
                "body.solvers",
            ),
        ]:
            with pytest.raises(ValidationError) as excinfo:
                validate_request(payload)
            assert excinfo.value.path == path

    def test_malformed_scenario_is_validation_not_crash(self):
        request, error = try_validate(
            {"kind": "plan", "body": {"scenario": {"not": "a scenario"}}}
        )
        assert request is None
        assert error is not None and error.code == "validation"

    def test_try_validate_never_raises(self):
        for garbage in (None, 42, "x", [], {"kind": []}, {"body": object()}):
            request, error = try_validate(garbage)
            assert request is None
            assert error is not None and error.code == "validation"

    @pytest.mark.parametrize(
        "value, json_type",
        [([], "array"), ("x", "string"), (1, "number"), (True, "boolean")],
    )
    @pytest.mark.parametrize(
        "kind, body, field",
        [
            ("plan", lambda s, v: {"scenario": v}, "scenario"),
            ("plan_batch", lambda s, v: {"scenarios": [v]}, "scenario"),
            ("simulate", lambda s, v: {"scenario": v}, "scenario"),
            ("degradation", lambda s, v: {"scenario": v}, "scenario"),
            ("online", lambda s, v: {"session": "a", "scenario": v}, "scenario"),
            ("workload", lambda s, v: {"workload": v}, "workload"),
            ("workload", lambda s, v: {"workload": {"phases": [v]}}, "scenario"),
            ("plan", lambda s, v: {"scenario": {**s, "topology": v}}, "topology"),
            (
                "plan",
                lambda s, v: {"scenario": {**s, "collective": v}},
                "collective",
            ),
            ("plan", lambda s, v: {"scenario": {**s, "cost": v}}, "cost"),
            ("plan", lambda s, v: {"scenario": {**s, "health": v}}, "health"),
        ],
    )
    def test_non_object_spec_field_names_field_and_type(
        self, small_scenario, kind, body, field, value, json_type
    ):
        """A spec field that must be a JSON object is type-checked: the
        answer is a ``validation`` error naming the field and the JSON
        type it got (never an AttributeError, and never silently read as
        the all-default value, as ``"cost": []`` once was)."""
        payload = {"kind": kind, "body": body(small_scenario.to_dict(), value)}
        request, error = try_validate(payload)
        assert request is None
        assert error is not None and error.code == "validation"
        assert field in error.message
        assert f"must be a JSON object, got {json_type}" in error.message

    def test_workload_phases_must_be_an_array(self, small_scenario):
        request, error = try_validate(
            {"kind": "workload", "body": {"workload": {"phases": "x"}}}
        )
        assert request is None and error.code == "validation"
        assert "workload phases must be a JSON array, got string" in error.message

    def test_null_stays_valid_where_to_dict_writes_it(self, small_scenario):
        scenario = {
            **small_scenario.to_dict(), "health": None, "multiport_radix": None
        }
        request, error = try_validate(
            {"kind": "plan", "body": {"scenario": scenario}}
        )
        assert error is None
        assert request.body.scenario == small_scenario

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("plan", {"cost": {"alpha": True}}, "alpha must be a finite number >= 0, got True"),
            (
                "plan",
                {"cost": {"reconfiguration_delay": False}},
                "reconfiguration_delay must be a finite number >= 0, got False",
            ),
            ("plan", {"topology": {"n": 8.9}}, "n must be a whole number >= 1, got 8.9"),
            ("plan", {"topology": {"n": True}}, "n must be a whole number >= 1, got True"),
            (
                "plan",
                {"collective": {"algorithm": "alltoall"}, "multiport_radix": 2.9},
                "multiport_radix must be a whole number >= 1, got 2.9",
            ),
            (
                "plan",
                {"collective": {"message_size": True}},
                "message_size must be a finite number >= 0, got True",
            ),
            (
                "plan",
                {"collective": {"message_size": math.nan}},
                "message_size must be a finite number >= 0, got nan",
            ),
            (
                "plan",
                {"collective": {"message_size": math.inf}},
                "message_size must be a finite number >= 0, got inf",
            ),
            ("degradation", {"seed": True}, "seed must be a whole number >= 0, got True"),
            ("degradation", {"seed": 1.7}, "seed must be a whole number >= 0, got 1.7"),
            ("degradation", {"seed": -1}, "seed must be a whole number >= 0, got -1"),
        ],
        ids=[
            "alpha-true",
            "alpha_r-false",
            "n-fraction",
            "n-true",
            "radix-fraction",
            "message_size-true",
            "message_size-nan",
            "message_size-inf",
            "seed-true",
            "seed-fraction",
            "seed-negative",
        ],
    )
    def test_scenario_numbers_are_checked_not_coerced(
        self, small_scenario, kind, edit, message
    ):
        """A boolean is not read as 0 or 1, nor a fraction truncated,
        where a scenario wants a number or a count.  A degradation
        edit names a body field; a plan edit, a scenario field."""
        scenario = small_scenario.to_dict()
        body = {"scenario": scenario}
        target = body if kind == "degradation" else scenario
        for key, value in edit.items():
            merged = {**target[key], **value} if isinstance(value, dict) else value
            target[key] = merged
        request, error = try_validate({"kind": kind, "body": body})
        assert request is None and error.code == "validation"
        assert message in error.message

    @pytest.mark.parametrize("seed", [0, 7.0])
    def test_degradation_seed_is_a_whole_number(self, small_scenario, seed):
        body = {"scenario": small_scenario.to_dict(), "seed": seed}
        request, error = try_validate({"kind": "degradation", "body": body})
        assert error is None
        assert request.body.seed == seed and type(request.body.seed) is int

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([[2.9, 1e-6]], "sample ports must be a whole number >= 1, got 2.9"),
            ([[2, True]], "sample delay must be a finite number >= 0, got True"),
            ([[2.9, True]], "sample ports must be a whole number >= 1, got 2.9"),
            ([5], "samples must be [ports, delay] pairs, got 5"),
            ([[2, 1e-6, 3]], "samples must be [ports, delay] pairs, got [2, 1e-06, 3]"),
            ([["a", 1e-6]], "sample ports must be a whole number >= 1, got 'a'"),
            ([], "samples must be a non-empty list of [ports, delay] pairs, got []"),
            (5, "samples must be a non-empty list of [ports, delay] pairs, got 5"),
        ],
        ids=[
            "fraction-ports",
            "boolean-delay",
            "fraction-and-boolean",
            "not-a-pair",
            "triple",
            "string-ports",
            "empty",
            "not-a-list",
        ],
    )
    def test_table_delay_samples_are_checked_not_coerced(
        self, small_scenario, samples, message
    ):
        data = ServiceRequest(
            body=WorkloadBody(workload=steady_trace(small_scenario, 2))
        ).to_dict()
        data["body"]["reconfiguration_model"] = {"kind": "table", "samples": samples}
        request, error = try_validate(data)
        assert request is None and error.code == "validation"
        assert message in error.message

    def test_typed_request_revalidates_registries(self, small_scenario):
        # A typed request built against a solver that has since been
        # unregistered must still be rejected at admission.
        request = ServiceRequest(body=PlanBody(scenario=small_scenario))
        assert validate_request(request) is request


@pytest.fixture
def small_scenario():
    return Scenario.create(
        "allreduce_ring",
        n=4,
        message_size=KiB(64),
        bandwidth=Gbps(800),
        alpha=ns(100),
        delta=ns(100),
        reconfiguration_delay=us(10),
    )
