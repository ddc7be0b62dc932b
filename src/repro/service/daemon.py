"""The planner daemon: a long-lived asyncio front end over the engine.

:class:`PlannerDaemon` is the core of planner-as-a-service — the paper's
"fabric that continuously bends to the collective will" needs a
controller that answers plan/simulate queries at traffic rates, which
means a resident process, not an invoke-per-call CLI.  The daemon owns:

* a **resident theta cache** — one :class:`~repro.flows.ThroughputCache`
  for the daemon's lifetime, optionally wired to the persistent
  :class:`~repro.engine.DiskStore` tier (``cache_dir`` or
  ``REPRO_CACHE_DIR``), so request N+1 for a seen scenario fingerprint
  is O(cache lookup): zero LP solves;
* **request coalescing** — identical in-flight requests (same
  :meth:`~repro.service.ServiceRequest.fingerprint`) share one solve;
  subscribers each get their own response envelope, marked
  ``coalesced=True``;
* **micro-batching** — plan requests admitted within one
  ``batch_window_s`` window are drained as a single
  :func:`repro.engine.plan_many` call, ordered by priority and grouped
  by theta affinity so scenarios that share step patterns solve
  consecutively against the warm cache;
* **streaming** — ``plan_batch`` requests can be consumed through
  :meth:`submit_stream`, which yields one response chunk per scenario
  as the engine's ``on_result`` hook delivers it, then a final summary;
* **error isolation** — malformed requests are answered with typed
  validation errors before any solver runs, and a solver exception
  mid-batch fails only its own request (the batch transparently falls
  back to per-item execution), so the loop never drops other in-flight
  work.

Solving itself is synchronous library code; the daemon runs it on a
small thread pool (``workers``) and keeps the event loop free for
admission, coalescing, and transport I/O.  All daemon state is owned by
the event loop thread — worker threads only compute and hand outcomes
back via the loop.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections.abc import AsyncIterator, Callable, Iterable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from ..exceptions import ConfigurationError, ReproError
from ..flows import ThroughputCache
from ..memo import BoundedMemo
from .._validation import require_count, require_non_negative
from .._version import detect_version
from .metrics import DaemonMetrics
from .schemas import (
    DegradationBody,
    MetricsBody,
    OnlineBody,
    PlanBatchBody,
    PlanBody,
    ServiceError,
    ServiceRequest,
    ServiceResponse,
    SimulateBody,
    WorkloadBody,
    new_request_id,
)
from .validator import try_validate

__all__ = ["PlannerDaemon"]

#: An outcome is ("ok", payload dict) or ("error", ServiceError).
Outcome = tuple[str, object]

#: Bound on the resident theta cache's entries when the daemon builds
#: its own: a daemon fed never-repeating faults would otherwise grow it
#: for its whole life.
_RESIDENT_CACHE_MAX = 4096
#: Resident online-control sessions (one per streaming client), least
#: recently used evicted first.
_ONLINE_SESSIONS_MAX = 32


def _theta_affinity(scenario):
    """A scenario's theta-reuse group: everything that determines its
    step *patterns* and their estimator — message size and cost scalars
    deliberately excluded (they never change theta)."""
    return (
        scenario.topology,
        scenario.collective.algorithm,
        scenario.collective.options,
        scenario.theta_method,
        scenario.path_rule,
        scenario.multiport_radix,
        # A degraded fabric has its own theta values: keep its cells
        # out of pristine cells' groups.
        None if scenario.health is None else scenario.health.fingerprint(),
    )


def _error_outcome(exc: BaseException) -> Outcome:
    code = "solver" if isinstance(exc, ReproError) else "internal"
    return ("error", ServiceError(code=code, message=f"{type(exc).__name__}: {exc}"))


_DEADLINE_OUTCOME: Outcome = (
    "error",
    ServiceError(
        code="deadline",
        message="request deadline expired before dispatch",
    ),
)


@dataclass
class _Job:
    """One admitted request waiting on (or owning) a solve."""

    request: ServiceRequest
    fingerprint: str
    future: asyncio.Future
    seq: int
    expires_at: float | None = None
    affinity: object = field(default=None)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now > self.expires_at


class PlannerDaemon:
    """A resident, concurrent planning service over :mod:`repro.engine`.

    Parameters
    ----------
    cache:
        The resident theta cache; a fresh private
        :class:`~repro.flows.ThroughputCache` bounded to
        ``_RESIDENT_CACHE_MAX`` entries (LRU) by default.  Explicitly
        passing one lets tests (and embedders) observe hit/miss
        statistics directly.
    cache_dir:
        Directory for the persistent :class:`~repro.engine.DiskStore`
        tier.  ``None`` falls back to ``REPRO_CACHE_DIR`` (attaching
        nothing when that is unset, keeping the daemon hermetic).
    batch_window_s:
        How long admission waits to micro-batch plan requests before
        flushing them as one ``plan_many`` call: a finite number of
        seconds >= 0.  ``0`` flushes on the next loop tick — concurrent
        submitters still land in one batch.
    max_batch:
        Flush immediately once this many plan requests are pending (a
        whole number >= 1).
    workers:
        Size of the solver thread pool (a whole number >= 1).  Theta
        work is compute-once across threads (the cache guarantees it),
        so more workers never duplicate LP solves.
    """

    def __init__(
        self,
        *,
        cache: ThroughputCache | None = None,
        cache_dir: str | None = None,
        batch_window_s: float = 0.002,
        max_batch: int = 128,
        workers: int = 2,
    ) -> None:
        self._batch_window_s = require_non_negative(
            batch_window_s, "batch_window_s", ConfigurationError
        )
        self._max_batch = require_count(max_batch, "max_batch", ConfigurationError)
        self._workers = require_count(workers, "workers", ConfigurationError)
        self.cache = (
            cache if cache is not None else ThroughputCache(maxsize=_RESIDENT_CACHE_MAX)
        )
        from ..engine.store import activate_disk_cache

        self.store = activate_disk_cache(directory=cache_dir, cache=self.cache)
        self.metrics_ = DaemonMetrics()
        self.version = detect_version()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._pending: list[_Job] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._tasks: set[asyncio.Task] = set()
        self._seq = 0
        self._started_at = time.time()
        # Resident online-control sessions: one OnlineController (plus
        # its serializing lock — a session's observe/decide must not
        # interleave across worker threads) per streaming client.  An
        # evicted session replans from its prior on its next step.
        self._online_sessions: BoundedMemo = BoundedMemo(_ONLINE_SESSIONS_MAX)

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "PlannerDaemon":
        """Bind to the running loop and spin up the solver pool."""
        self._ensure_started()
        return self

    async def stop(self) -> None:
        """Flush pending work, finish in-flight solves, release the pool.

        Safe to call on a never-started daemon; afterwards the daemon
        may be started again (on any loop).
        """
        if self._loop is None:
            return
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._flush()
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._executor = None
        self._loop = None

    async def __aenter__(self) -> "PlannerDaemon":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _ensure_started(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            self._started_at = time.time()
        elif loop is not self._loop:
            raise ConfigurationError(
                "daemon is bound to a different event loop; stop() it first"
            )
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix="repro-service"
            )
        return loop

    # -- admission -----------------------------------------------------------

    async def submit(
        self, request: "ServiceRequest | Mapping[str, object]"
    ) -> ServiceResponse:
        """Admit one request and await its typed response.

        Never raises for request-shaped problems: malformed payloads,
        expired deadlines, and solver failures all come back as
        ``ok=False`` responses with a typed ``error``.
        """
        loop = self._ensure_started()
        t0 = loop.time()
        self.metrics_.admitted += 1
        request_id, kind = _identify(request)
        validated, error = try_validate(request)
        if error is not None:
            self.metrics_.validation_errors += 1
            self.metrics_.observe(kind, loop.time() - t0, ok=False)
            return ServiceResponse(
                id=request_id,
                kind=kind,
                ok=False,
                error=error,
                version=self.version,
                elapsed_s=loop.time() - t0,
            )
        request = validated
        if isinstance(request.body, MetricsBody):
            response = ServiceResponse(
                id=request.id,
                kind=request.kind,
                ok=True,
                result=self.metrics(),
                version=self.version,
                elapsed_s=loop.time() - t0,
            )
            self.metrics_.observe(request.kind, loop.time() - t0, ok=True)
            return response

        fingerprint = request.fingerprint()
        shared = self._inflight.get(fingerprint)
        coalesced = shared is not None and not shared.done()
        if coalesced:
            self.metrics_.coalesced += 1
            outcome = await shared
        else:
            future = loop.create_future()
            self._inflight[fingerprint] = future
            self.metrics_.dispatched += 1
            self._dispatch(request, fingerprint, future)
            outcome = await future
        return self._respond(request, outcome, t0, coalesced)

    async def submit_stream(
        self, request: "ServiceRequest | Mapping[str, object]"
    ) -> AsyncIterator[ServiceResponse]:
        """Stream a ``plan_batch`` request: one chunk per scenario.

        Chunks carry ``seq`` (the scenario's index, in input order) and
        ``final=False``; the terminating envelope has ``final=True``
        and a ``{"count", "ok", "errors"}`` summary.  A solver failure
        mid-batch yields an error chunk for that scenario only — the
        rest of the batch still streams.  Non-batch kinds degrade to a
        single unary response.  Streams bypass fingerprint coalescing
        (their per-scenario theta work still hits the resident cache).
        """
        loop = self._ensure_started()
        t0 = loop.time()
        request_id, kind = _identify(request)
        validated, error = try_validate(request)
        if error is not None:
            self.metrics_.admitted += 1
            self.metrics_.validation_errors += 1
            yield ServiceResponse(
                id=request_id,
                kind=kind,
                ok=False,
                error=error,
                version=self.version,
                elapsed_s=loop.time() - t0,
            )
            return
        request = validated
        if not isinstance(request.body, PlanBatchBody):
            yield await self.submit(request)
            return
        self.metrics_.admitted += 1
        self.metrics_.dispatched += 1
        self.metrics_.streams += 1
        queue: asyncio.Queue = asyncio.Queue()
        worker = loop.run_in_executor(
            self._executor,
            self._plan_batch,
            _plan_requests([request.body]),
            lambda index, outcome: loop.call_soon_threadsafe(
                queue.put_nowait, (index, outcome)
            ),
        )
        # Done callbacks run on the loop after every chunk the worker
        # handed over, so the sentinel always comes last.
        worker.add_done_callback(lambda _: queue.put_nowait(None))
        ok_count = 0
        error_count = 0
        while True:
            item = await queue.get()
            if item is None:
                break
            index, outcome = item
            status, payload = outcome
            self.metrics_.stream_chunks += 1
            if status == "ok":
                ok_count += 1
                yield ServiceResponse(
                    id=request.id,
                    kind=request.kind,
                    ok=True,
                    result=payload,
                    version=self.version,
                    elapsed_s=loop.time() - t0,
                    seq=index,
                    final=False,
                )
            else:
                error_count += 1
                yield ServiceResponse(
                    id=request.id,
                    kind=request.kind,
                    ok=False,
                    error=payload,
                    version=self.version,
                    elapsed_s=loop.time() - t0,
                    seq=index,
                    final=False,
                )
        await worker
        elapsed = loop.time() - t0
        self.metrics_.observe(request.kind, elapsed, ok=error_count == 0)
        if error_count:
            self.metrics_.solver_errors += error_count
        yield ServiceResponse(
            id=request.id,
            kind=request.kind,
            ok=error_count == 0,
            result=(
                {
                    "count": len(request.body.scenarios),
                    "ok": ok_count,
                    "errors": error_count,
                }
                if error_count == 0
                else None
            ),
            error=(
                None
                if error_count == 0
                else ServiceError(
                    code="solver",
                    message=f"{error_count} of "
                    f"{len(request.body.scenarios)} batch items failed",
                )
            ),
            version=self.version,
            elapsed_s=elapsed,
        )

    def metrics(self) -> dict[str, object]:
        """The observability snapshot the ``metrics`` kind returns.

        Besides the daemon's own admission/latency counters and the
        resident cache statistics, the snapshot surfaces the block
        solver's work-avoidance counters (``block``): process-wide
        counters, shared with any in-process library callers.
        """
        from ..flows import block_stats

        snapshot = self.metrics_.snapshot()
        stats = self.cache.stats()
        n_sessions = len(self._online_sessions)
        snapshot.update(
            version=self.version,
            uptime_s=time.time() - self._started_at,
            in_flight=len(self._inflight),
            pending=len(self._pending),
            cache={
                "hits": stats.hits,
                "misses": stats.misses,
                "disk_hits": stats.disk_hits,
                "size": stats.size,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
            },
            store=(
                None
                if self.store is None
                else {
                    "directory": str(self.store.directory),
                    "entries": len(self.store),
                }
            ),
            block=asdict(block_stats()),
            online={"sessions": n_sessions},
        )
        return snapshot

    # -- dispatch ------------------------------------------------------------

    def _dispatch(
        self,
        request: ServiceRequest,
        fingerprint: str,
        future: asyncio.Future,
    ) -> None:
        loop = self._loop
        assert loop is not None
        self._seq += 1
        expires_at = (
            None
            if request.deadline_s is None
            else loop.time() + request.deadline_s
        )
        job = _Job(
            request=request,
            fingerprint=fingerprint,
            future=future,
            seq=self._seq,
            expires_at=expires_at,
        )
        if isinstance(request.body, PlanBody):
            job.affinity = repr(_theta_affinity(request.body.scenario))
            self._pending.append(job)
            if len(self._pending) >= self._max_batch:
                if self._flush_handle is not None:
                    self._flush_handle.cancel()
                    self._flush_handle = None
                self._flush()
            elif self._flush_handle is None:
                self._flush_handle = loop.call_later(
                    self._batch_window_s, self._flush
                )
            return
        self._spawn(self._run_direct(job))

    def _spawn(self, coro) -> None:
        task = self._loop.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _flush(self) -> None:
        """Drain the pending plan queue into one micro-batch task."""
        self._flush_handle = None
        if not self._pending:
            return
        jobs, self._pending = self._pending, []
        # Priority first (larger earlier), then theta affinity so
        # same-pattern scenarios solve consecutively against a warm
        # cache, then admission order for determinism.
        jobs.sort(key=lambda job: (-job.request.priority, job.affinity, job.seq))
        self.metrics_.record_batch(len(jobs))
        self._spawn(self._run_plan_batch(jobs))

    async def _run_plan_batch(self, jobs: list[_Job]) -> None:
        loop = self._loop
        now = loop.time()
        live: list[_Job] = []
        for job in jobs:
            if job.expired(now):
                self.metrics_.deadline_errors += 1
                self._resolve(job, _DEADLINE_OUTCOME)
            else:
                live.append(job)
        if not live:
            return
        outcomes = await self._plan_outcomes(
            _plan_requests(job.request.body for job in live)
        )
        for job, outcome in zip(live, outcomes):
            if outcome[0] == "error":
                self.metrics_.solver_errors += 1
            self._resolve(job, outcome)

    async def _run_direct(self, job: _Job) -> None:
        loop = self._loop
        if job.expired(loop.time()):
            self.metrics_.deadline_errors += 1
            self._resolve(job, _DEADLINE_OUTCOME)
            return
        body = job.request.body
        if isinstance(body, PlanBatchBody):
            outcomes = await self._plan_outcomes(_plan_requests([body]))
            errors = [outcome for outcome in outcomes if outcome[0] == "error"]
            results = [payload for _, payload in outcomes]
            outcome = (
                errors[0]
                if errors
                else ("ok", {"count": len(results), "results": results})
            )
        else:
            outcome = await loop.run_in_executor(
                self._executor, self._solve_one, body
            )
        if outcome[0] == "error":
            self.metrics_.solver_errors += 1
        self._resolve(job, outcome)

    async def _plan_outcomes(self, requests: list) -> list[Outcome]:
        """Run :meth:`_plan_batch` on a worker thread; one outcome per
        request, in input order."""
        outcomes: list[Outcome] = []
        await self._loop.run_in_executor(
            self._executor,
            self._plan_batch,
            requests,
            lambda index, outcome: outcomes.append(outcome),
        )
        return outcomes

    def _resolve(self, job: _Job, outcome: Outcome) -> None:
        if not job.future.done():
            job.future.set_result(outcome)
        if self._inflight.get(job.fingerprint) is job.future:
            del self._inflight[job.fingerprint]

    def _respond(
        self,
        request: ServiceRequest,
        outcome: Outcome,
        t0: float,
        coalesced: bool,
    ) -> ServiceResponse:
        status, payload = outcome
        elapsed = self._loop.time() - t0
        self.metrics_.observe(request.kind, elapsed, ok=status == "ok")
        if status == "ok":
            return ServiceResponse(
                id=request.id,
                kind=request.kind,
                ok=True,
                result=payload,
                version=self.version,
                elapsed_s=elapsed,
                coalesced=coalesced,
            )
        return ServiceResponse(
            id=request.id,
            kind=request.kind,
            ok=False,
            error=payload,
            version=self.version,
            elapsed_s=elapsed,
            coalesced=coalesced,
        )

    def _online_session_for(self, body) -> "tuple[object, threading.Lock]":
        """The resident :class:`~repro.control.OnlineController` (and its
        serializing lock) for a streaming session, creating it from the
        step's policy and options on first sight."""
        from ..control.policy import _online_controller

        def start() -> "tuple[object, threading.Lock]":
            controller = _online_controller(
                body.policy, dict(body.options), cache=self.cache
            )
            return (controller, threading.Lock())

        return self._online_sessions.get_or_compute(body.session, start)

    # -- solving (worker threads; no daemon state mutation) ------------------

    def _plan_batch(
        self, requests: list, emit: Callable[[int, Outcome], None]
    ) -> None:
        """Plan ``requests`` through one ``plan_many`` call, handing each
        item's outcome to ``emit(index, outcome)`` as soon as it exists.

        If the call aborts mid-batch, the items it never delivered are
        planned one by one, so exactly the failing items error (theta
        values computed before the failure are cached, so the re-plan
        is cheap)."""
        from ..engine.api import plan_many
        from ..planner.registry import plan

        delivered = 0

        def deliver(index: int, result) -> None:
            nonlocal delivered
            emit(index, ("ok", result.to_dict()))
            delivered = index + 1

        try:
            plan_many(requests, cache=self.cache, on_result=deliver)
        except Exception:
            for index in range(delivered, len(requests)):
                try:
                    outcome = (
                        "ok",
                        plan(requests[index], cache=self.cache).to_dict(),
                    )
                except Exception as exc:
                    outcome = _error_outcome(exc)
                emit(index, outcome)

    def _solve_one(self, body) -> Outcome:
        """Solve one non-plan request on a worker thread."""
        try:
            if isinstance(body, SimulateBody):
                from ..sim.executor import simulate_plan

                result = simulate_plan(
                    body.scenario,
                    solver=body.solver,
                    rate_method=body.rate_method,
                    accounting=body.accounting,
                    cache=self.cache,
                    **dict(body.options),
                )
                return ("ok", result.to_dict())
            if isinstance(body, WorkloadBody):
                from ..sim.workload import simulate_workload

                result = simulate_workload(
                    body.workload,
                    policy=body.policy,
                    solver=body.solver,
                    reconfiguration_model=body.reconfiguration_model,
                    cache=self.cache,
                    **dict(body.options),
                )
                return ("ok", result.to_dict())
            if isinstance(body, OnlineBody):
                from ..control.controller import mask_demand
                from ..sim.observation import observations_from_rows

                controller, session_lock = self._online_session_for(body)
                with session_lock:
                    if body.observations and controller.stats.phases > 0:
                        # Telemetry for a phase this controller never
                        # decided (fresh or LRU-evicted session) has no
                        # structure to attach to; drop it and replan
                        # from the prior rather than failing the step.
                        controller.observe(
                            observations_from_rows(body.observations),
                            delta=body.scenario.cost.delta,
                        )
                    decision = controller.decide(mask_demand(body.scenario))
                    stats = controller.stats.to_dict()
                return (
                    "ok",
                    {
                        "session": body.session,
                        "seq": body.seq,
                        "decision": decision.to_dict(),
                        "stats": stats,
                    },
                )
            if isinstance(body, DegradationBody):
                from ..experiments.degradation import run_degradation_grid

                cells = run_degradation_grid(
                    base=body.scenario,
                    seed=body.seed,
                    solvers=body.solvers,
                    cache=self.cache,
                )
                return ("ok", {"cells": [cell.to_dict() for cell in cells]})
            raise ConfigurationError(
                f"no handler for body type {type(body).__name__}"
            )
        except Exception as exc:
            return _error_outcome(exc)


def _plan_requests(bodies: Iterable) -> list:
    """One :class:`~repro.planner.PlanRequest` per scenario of the given
    plan and plan-batch bodies, in order."""
    from ..planner.result import PlanRequest

    return [
        PlanRequest(scenario=scenario, solver=body.solver, options=body.options)
        for body in bodies
        for scenario in (
            body.scenarios
            if isinstance(body, PlanBatchBody)
            else (body.scenario,)
        )
    ]


def _identify(request: "ServiceRequest | Mapping[str, object]") -> tuple[str, str]:
    """Best-effort (id, kind) for responses to invalid payloads."""
    if isinstance(request, ServiceRequest):
        return request.id, request.kind
    if isinstance(request, Mapping):
        request_id = request.get("id")
        kind = request.get("kind")
        return (
            str(request_id) if request_id else new_request_id(),
            str(kind) if kind else "unknown",
        )
    return new_request_id(), "unknown"
