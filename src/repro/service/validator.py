"""Request validation, strictly separated from solving.

The daemon's contract is that *nothing malformed ever reaches a
solver*: every inbound payload passes through :func:`validate_request`
first, which either returns a fully-typed
:class:`~repro.service.schemas.ServiceRequest` or raises
:class:`ValidationError` — a typed, catchable failure the daemon turns
into an ``error.code == "validation"`` response without touching the
event loop's health.  :func:`try_validate` is the never-raises variant
the transport layer uses.

Validation covers three layers:

1. **Envelope structure** — the payload is a mapping, the kind is
   known, id / priority / deadline have the right shapes.
2. **Body schemas** — each variant's ``from_dict`` fully validates the
   embedded :class:`~repro.planner.Scenario` / workload specs (unknown
   keys, impossible parameter combinations, bandwidth mismatches, bad
   fabric-health descriptions — all the invariants the declarative
   layer already enforces).
3. **Registry references** — solver, policy, and rate-method names must
   be registered *now*, so a typo fails at admission instead of deep
   inside a worker thread.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..exceptions import ReproError, SimulationError
from .schemas import (
    REQUEST_KINDS,
    DegradationBody,
    OnlineBody,
    PlanBatchBody,
    PlanBody,
    ServiceError,
    ServiceRequest,
    SimulateBody,
    WorkloadBody,
)

__all__ = ["ValidationError", "validate_request", "try_validate"]


class ValidationError(ReproError):
    """A request failed validation before reaching any solver.

    Carries the offending ``path`` (dotted location inside the request
    payload) alongside the message, and converts to a typed
    :class:`~repro.service.schemas.ServiceError` via :meth:`as_error`.
    """

    def __init__(self, message: str, path: str = "") -> None:
        super().__init__(message)
        self.path = path

    def as_error(self) -> ServiceError:
        details = (f"at {self.path}",) if self.path else ()
        return ServiceError(
            code="validation", message=str(self), details=details
        )


def _fail(message: str, path: str = "") -> "ValidationError":
    return ValidationError(message, path=path)


def _check_envelope(data: Mapping[str, object]) -> None:
    """Structural pre-checks with precise paths, before from_dict runs."""
    if not isinstance(data, Mapping):
        raise _fail(
            f"request must be a mapping, got {type(data).__name__}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in REQUEST_KINDS:
        raise _fail(
            f"kind must be one of {sorted(REQUEST_KINDS)}, got {kind!r}",
            path="kind",
        )
    request_id = data.get("id", "")
    if not isinstance(request_id, str):
        raise _fail(
            f"id must be a string, got {type(request_id).__name__}",
            path="id",
        )
    priority = data.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise _fail(
            f"priority must be an integer, got {priority!r}", path="priority"
        )
    deadline = data.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(
            deadline, (int, float)
        ):
            raise _fail(
                f"deadline_s must be a positive number, got {deadline!r}",
                path="deadline_s",
            )
        if not deadline > 0:
            raise _fail(
                f"deadline_s must be positive, got {deadline}",
                path="deadline_s",
            )
    body = data.get("body", {})
    if not isinstance(body, Mapping):
        raise _fail(
            f"body must be a mapping, got {type(body).__name__}", path="body"
        )


def _check_registries(request: ServiceRequest) -> None:
    """Reject unregistered solver / policy / rate-method names early."""
    from ..planner.registry import available_solvers
    from ..sim.rates import RATE_METHODS
    from ..workload.policies import available_policies

    body = request.body
    solvers = available_solvers()
    if isinstance(body, (PlanBody, PlanBatchBody, SimulateBody, WorkloadBody)):
        if body.solver not in solvers:
            raise _fail(
                f"unknown solver {body.solver!r}; available: {solvers}",
                path="body.solver",
            )
    if isinstance(body, DegradationBody):
        for solver in body.solvers:
            if solver not in solvers:
                raise _fail(
                    f"unknown solver {solver!r}; available: {solvers}",
                    path="body.solvers",
                )
    if isinstance(body, SimulateBody):
        if body.rate_method not in RATE_METHODS:
            raise _fail(
                f"unknown rate method {body.rate_method!r}; available: "
                f"{RATE_METHODS}",
                path="body.rate_method",
            )
        if body.accounting not in ("paper", "physical"):
            raise _fail(
                f"accounting must be 'paper' or 'physical', got "
                f"{body.accounting!r}",
                path="body.accounting",
            )
    if isinstance(body, WorkloadBody):
        policies = available_policies()
        if body.policy not in policies:
            raise _fail(
                f"unknown policy {body.policy!r}; available: {policies}",
                path="body.policy",
            )
    if isinstance(body, OnlineBody):
        from ..control.policy import ONLINE_POLICIES, _online_options
        from ..sim.observation import RateObservation

        if body.policy not in ONLINE_POLICIES:
            raise _fail(
                f"unknown online policy {body.policy!r}; available: "
                f"{tuple(sorted(ONLINE_POLICIES))}",
                path="body.policy",
            )
        try:
            _online_options(body.policy, dict(body.options))
        except ReproError as exc:
            raise _fail(str(exc), path="body.options") from exc
        for index, row in enumerate(body.observations):
            try:
                RateObservation.from_row(row)
            except SimulationError as exc:
                raise _fail(
                    f"observation row {index}: {exc}", path="body.observations"
                ) from exc


def validate_request(
    data: "Mapping[str, object] | ServiceRequest",
) -> ServiceRequest:
    """Validate a raw payload into a typed request, or raise.

    Accepts an already-typed :class:`ServiceRequest` (re-checking only
    the registry references — its schemas were validated on
    construction) or a plain mapping.  Raises :class:`ValidationError`;
    never returns a half-validated request, and never invokes a solver.
    """
    if isinstance(data, ServiceRequest):
        _check_registries(data)
        return data
    _check_envelope(data)
    try:
        request = ServiceRequest.from_dict(data)
    except ValidationError:
        raise
    except ReproError as exc:
        raise ValidationError(str(exc), path="body") from exc
    _check_registries(request)
    return request


def try_validate(
    data: "Mapping[str, object] | ServiceRequest",
) -> tuple[ServiceRequest | None, ServiceError | None]:
    """The never-raises variant: ``(request, None)`` or ``(None, error)``.

    Unexpected non-:class:`~repro.exceptions.ReproError` failures are
    also captured (as ``code="validation"``) — a malformed request must
    never take down the daemon loop.
    """
    try:
        return validate_request(data), None
    except ValidationError as exc:
        return None, exc.as_error()
    except Exception as exc:  # defensive: loop must survive anything
        return None, ServiceError(
            code="validation",
            message=f"{type(exc).__name__}: {exc}",
        )
