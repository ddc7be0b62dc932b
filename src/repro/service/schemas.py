"""Typed request/response envelopes for the planner service.

Everything that crosses the service boundary is a frozen dataclass that
round-trips through plain dicts, exactly like the declarative planning
layer it wraps: a :class:`ServiceRequest` is an envelope (request id,
priority, optional deadline) around one typed *body* — plan, plan-batch,
simulate, workload, online, degradation, or metrics — and a
:class:`ServiceResponse` is the envelope coming back (result payload or
a typed :class:`ServiceError`, the library version, latency, and the
coalescing/streaming markers).

Schema rules:

* ``to_dict`` / ``from_dict`` are exact inverses for every variant —
  the hypothesis suite in ``tests/test_service_schemas.py`` pins this.
* ``from_dict`` rejects unknown keys and malformed values with
  :class:`~repro.exceptions.ConfigurationError`; the service-facing
  :mod:`repro.service.validator` wraps those into typed
  :class:`~repro.service.validator.ValidationError` responses *before*
  anything reaches a solver.
* :meth:`ServiceRequest.fingerprint` is a content digest over the kind
  and body only — not the request id, priority, or deadline — so two
  clients asking the same question coalesce onto one in-flight solve.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence

from .._validation import require_count, require_field as _require, require_keys
from .._version import detect_version
from ..exceptions import ConfigurationError
from ..fabric.reconfiguration import (
    ReconfigurationModel,
    reconfiguration_model_from_dict,
)
from ..planner.scenario import (
    Options,
    Scenario,
    _freeze_options,
    _thaw_options,
    canonical_digest,
)
from ..workload.spec import Workload

__all__ = [
    "REQUEST_KINDS",
    "PlanBody",
    "PlanBatchBody",
    "SimulateBody",
    "WorkloadBody",
    "OnlineBody",
    "DegradationBody",
    "MetricsBody",
    "ServiceRequest",
    "ServiceError",
    "ServiceResponse",
    "new_request_id",
]

#: The recognized request kinds, in the order the docs present them.
REQUEST_KINDS = (
    "plan",
    "plan_batch",
    "simulate",
    "workload",
    "online",
    "degradation",
    "metrics",
)

#: Machine-readable error codes a :class:`ServiceError` may carry.
ERROR_CODES = ("validation", "deadline", "solver", "internal")


def new_request_id() -> str:
    """A fresh, collision-resistant request id (clients call this)."""
    return uuid.uuid4().hex


# -- request bodies ----------------------------------------------------------


@dataclass(frozen=True)
class PlanBody:
    """Plan one scenario with a registered solver."""

    scenario: Scenario
    solver: str = "dp"
    options: Options = ()

    kind = "plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "scenario": self.scenario.to_dict(),
            "solver": self.solver,
        }
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PlanBody":
        require_keys(data, {"scenario", "solver", "options"}, "plan body")
        return cls(
            scenario=Scenario.from_dict(_require(data, "scenario", "plan body")),
            solver=str(data.get("solver", "dp")),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class PlanBatchBody:
    """Plan a whole batch of scenarios; results can be streamed."""

    scenarios: tuple[Scenario, ...]
    solver: str = "dp"
    options: Options = ()

    kind = "plan_batch"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        if not self.scenarios:
            raise ConfigurationError("plan_batch body needs at least one scenario")
        object.__setattr__(self, "options", _freeze_options(self.options))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "scenarios": [scenario.to_dict() for scenario in self.scenarios],
            "solver": self.solver,
        }
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PlanBatchBody":
        require_keys(data, {"scenarios", "solver", "options"}, "plan_batch body")
        raw = _require(data, "scenarios", "plan_batch body")
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ConfigurationError(
                f"plan_batch scenarios must be a list, got {type(raw).__name__}"
            )
        return cls(
            scenarios=tuple(Scenario.from_dict(item) for item in raw),
            solver=str(data.get("solver", "dp")),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class SimulateBody:
    """Plan one scenario, then execute it on the flow simulator."""

    scenario: Scenario
    solver: str = "dp"
    rate_method: str = "mcf"
    accounting: str = "paper"
    options: Options = ()

    kind = "simulate"

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "scenario": self.scenario.to_dict(),
            "solver": self.solver,
            "rate_method": self.rate_method,
            "accounting": self.accounting,
        }
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimulateBody":
        require_keys(
            data,
            {"scenario", "solver", "rate_method", "accounting", "options"},
            "simulate body",
        )
        return cls(
            scenario=Scenario.from_dict(
                _require(data, "scenario", "simulate body")
            ),
            solver=str(data.get("solver", "dp")),
            rate_method=str(data.get("rate_method", "mcf")),
            accounting=str(data.get("accounting", "paper")),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class WorkloadBody:
    """Plan and execute a multi-phase workload with an online policy."""

    workload: Workload
    policy: str = "replan"
    solver: str = "dp"
    reconfiguration_model: ReconfigurationModel | None = None
    options: Options = ()

    kind = "workload"

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", _freeze_options(self.options))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "workload": self.workload.to_dict(),
            "policy": self.policy,
            "solver": self.solver,
        }
        if self.reconfiguration_model is not None:
            out["reconfiguration_model"] = self.reconfiguration_model.to_dict()
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkloadBody":
        require_keys(
            data,
            {"workload", "policy", "solver", "reconfiguration_model", "options"},
            "workload body",
        )
        model_data = data.get("reconfiguration_model")
        return cls(
            workload=Workload.from_dict(
                _require(data, "workload", "workload body")
            ),
            policy=str(data.get("policy", "replan")),
            solver=str(data.get("solver", "dp")),
            reconfiguration_model=(
                None
                if model_data is None
                else reconfiguration_model_from_dict(model_data)
            ),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class OnlineBody:
    """One streaming step of an online-control session.

    The client runs the collective fabric; the daemon runs the
    controller.  Each step carries the *demand-masked* phase skeleton
    the client is about to serve, the telemetry it observed from the
    previous phase (``RateObservation`` rows — achieved rates, never
    declared demand), and a monotone ``seq`` so consecutive steps of
    one session never coalesce (identical retries of the *same* step
    still do, which is exactly the idempotency a streaming client
    wants).  The daemon keeps an :class:`~repro.control.OnlineController`
    per ``session`` and answers each step with its committed schedule.
    """

    session: str
    scenario: Scenario
    seq: int = 0
    policy: str = "online-ewma"
    #: ``RateObservation.to_row()`` rows:
    #: ``[step, src, dst, rate, start, end, hops, decision]``.
    observations: tuple[tuple, ...] = ()
    options: Options = ()

    kind = "online"

    def __post_init__(self) -> None:
        if not str(self.session):
            raise ConfigurationError("online body needs a session id")
        object.__setattr__(self, "session", str(self.session))
        object.__setattr__(self, "seq", int(self.seq))
        if self.seq < 0:
            raise ConfigurationError(
                f"online seq must be >= 0, got {self.seq}"
            )
        object.__setattr__(
            self,
            "observations",
            tuple(tuple(row) for row in self.observations),
        )
        object.__setattr__(self, "options", _freeze_options(self.options))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "session": self.session,
            "scenario": self.scenario.to_dict(),
            "seq": self.seq,
            "policy": self.policy,
        }
        if self.observations:
            out["observations"] = [list(row) for row in self.observations]
        if self.options:
            out["options"] = _thaw_options(self.options)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "OnlineBody":
        require_keys(
            data,
            {"session", "scenario", "seq", "policy", "observations",
             "options"},
            "online body",
        )
        raw = data.get("observations", ())
        if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
            raise ConfigurationError(
                f"online observations must be a list of rows, got "
                f"{type(raw).__name__}"
            )
        return cls(
            session=str(_require(data, "session", "online body")),
            scenario=Scenario.from_dict(
                _require(data, "scenario", "online body")
            ),
            seq=int(data.get("seq", 0)),
            policy=str(data.get("policy", "online-ewma")),
            observations=tuple(tuple(row) for row in raw),
            options=_freeze_options(data.get("options")),
        )


@dataclass(frozen=True)
class DegradationBody:
    """Run the fabric-condition grid for one base scenario."""

    scenario: Scenario
    seed: int = 7
    solvers: tuple[str, ...] = ("dp", "avoid")

    kind = "degradation"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "solvers", tuple(str(s) for s in self.solvers)
        )
        if not self.solvers:
            raise ConfigurationError(
                "degradation body needs at least one solver"
            )
        seed = require_count(self.seed, "seed", ConfigurationError, minimum=0)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario.to_dict(),
            "seed": self.seed,
            "solvers": list(self.solvers),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DegradationBody":
        require_keys(data, {"scenario", "seed", "solvers"}, "degradation body")
        return cls(
            scenario=Scenario.from_dict(
                _require(data, "scenario", "degradation body")
            ),
            seed=data.get("seed", 7),
            solvers=tuple(data.get("solvers", ("dp", "avoid"))),
        )


@dataclass(frozen=True)
class MetricsBody:
    """Ask the daemon for its metrics snapshot (no solving involved)."""

    kind = "metrics"

    def to_dict(self) -> dict[str, object]:
        return {}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsBody":
        require_keys(data, set(), "metrics body")
        return cls()


_BODY_TYPES = {
    "plan": PlanBody,
    "plan_batch": PlanBatchBody,
    "simulate": SimulateBody,
    "workload": WorkloadBody,
    "online": OnlineBody,
    "degradation": DegradationBody,
    "metrics": MetricsBody,
}

RequestBody = (
    PlanBody
    | PlanBatchBody
    | SimulateBody
    | WorkloadBody
    | OnlineBody
    | DegradationBody
    | MetricsBody
)


# -- the envelopes -----------------------------------------------------------


@dataclass(frozen=True)
class ServiceRequest:
    """One request envelope: an id, scheduling hints, and a typed body.

    Attributes
    ----------
    body:
        The typed request variant; its class determines ``kind``.
    id:
        Client-chosen correlation id (``new_request_id()`` when empty).
    priority:
        Larger runs earlier within a micro-batch window; ties keep
        arrival order.
    deadline_s:
        Optional time budget in seconds, measured from admission.  A
        request still queued when its budget is spent is answered with
        a ``deadline`` error instead of being solved.
    """

    body: RequestBody
    id: str = ""
    priority: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.body, tuple(_BODY_TYPES.values())):
            raise ConfigurationError(
                f"request body must be one of {sorted(_BODY_TYPES)}, got "
                f"{type(self.body).__name__}"
            )
        object.__setattr__(self, "id", str(self.id) or new_request_id())
        object.__setattr__(self, "priority", int(self.priority))
        if self.deadline_s is not None:
            deadline = float(self.deadline_s)
            if deadline <= 0:
                raise ConfigurationError(
                    f"deadline_s must be positive, got {deadline}"
                )
            object.__setattr__(self, "deadline_s", deadline)

    @property
    def kind(self) -> str:
        """The request kind (derived from the body's type)."""
        return self.body.kind

    def fingerprint(self) -> str:
        """Content digest of (kind, body) — the coalescing key.

        Deliberately excludes the request id, priority, and deadline:
        two clients asking the same question at the same time share one
        solve regardless of who asked first or how urgently.
        """
        return canonical_digest(
            "service-request-v1",
            {"kind": self.kind, "body": self.body.to_dict()},
        )

    def with_id(self, request_id: str) -> "ServiceRequest":
        """A copy carrying a different correlation id."""
        return replace(self, id=str(request_id))

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "body": self.body.to_dict(),
        }
        if self.priority:
            out["priority"] = self.priority
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServiceRequest":
        require_keys(
            data, {"id", "kind", "body", "priority", "deadline_s"}, "request"
        )
        kind = str(_require(data, "kind", "request"))
        body_type = _BODY_TYPES.get(kind)
        if body_type is None:
            raise ConfigurationError(
                f"unknown request kind {kind!r}; available: "
                f"{sorted(_BODY_TYPES)}"
            )
        return cls(
            body=body_type.from_dict(data.get("body", {})),
            id=str(data.get("id", "")),
            priority=int(data.get("priority", 0)),
            deadline_s=(
                None
                if data.get("deadline_s") is None
                else float(data["deadline_s"])
            ),
        )


@dataclass(frozen=True)
class ServiceError:
    """A typed failure: machine-readable code + human-readable message."""

    code: str
    message: str
    details: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ConfigurationError(
                f"unknown error code {self.code!r}; available: {ERROR_CODES}"
            )
        object.__setattr__(
            self, "details", tuple(str(d) for d in self.details)
        )

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"code": self.code, "message": self.message}
        if self.details:
            out["details"] = list(self.details)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServiceError":
        require_keys(data, {"code", "message", "details"}, "error")
        return cls(
            code=str(_require(data, "code", "error")),
            message=str(_require(data, "message", "error")),
            details=tuple(data.get("details", ())),
        )


@dataclass(frozen=True)
class ServiceResponse:
    """One response envelope (or one chunk of a streamed batch).

    ``ok`` decides which of ``result`` / ``error`` is set.  ``seq`` is
    ``None`` for unary responses; streamed batches deliver chunks with
    ``seq = 0, 1, ...`` followed by a summary envelope with
    ``final=True``.  Every response carries the serving library's
    ``version`` and the daemon-measured ``elapsed_s``; ``coalesced``
    marks responses served by piggybacking on another request's
    in-flight solve.
    """

    id: str
    kind: str
    ok: bool
    result: dict | None = None
    error: ServiceError | None = None
    version: str = field(default_factory=detect_version)
    elapsed_s: float = 0.0
    coalesced: bool = False
    seq: int | None = None
    final: bool = True

    def __post_init__(self) -> None:
        if self.ok and self.error is not None:
            raise ConfigurationError("an ok response cannot carry an error")
        if not self.ok and self.error is None:
            raise ConfigurationError(
                "a failed response must carry a typed error"
            )

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "ok": self.ok,
            "version": self.version,
            "elapsed_s": self.elapsed_s,
            "final": self.final,
        }
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error.to_dict()
        if self.coalesced:
            out["coalesced"] = True
        if self.seq is not None:
            out["seq"] = self.seq
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServiceResponse":
        require_keys(
            data,
            {
                "id",
                "kind",
                "ok",
                "version",
                "elapsed_s",
                "result",
                "error",
                "coalesced",
                "seq",
                "final",
            },
            "response",
        )
        error_data = data.get("error")
        return cls(
            id=str(_require(data, "id", "response")),
            kind=str(_require(data, "kind", "response")),
            ok=bool(_require(data, "ok", "response")),
            result=(
                None if data.get("result") is None else dict(data["result"])
            ),
            error=(
                None
                if error_data is None
                else ServiceError.from_dict(error_data)
            ),
            version=str(data.get("version", detect_version())),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
            coalesced=bool(data.get("coalesced", False)),
            seq=None if data.get("seq") is None else int(data["seq"]),
            final=bool(data.get("final", True)),
        )
