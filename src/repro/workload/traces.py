"""Synthetic traffic traces: time-varying multi-collective workloads.

Each generator expands a base :class:`~repro.planner.Scenario` (which
fixes the fabric, rank count, and cost scalars) into a
:class:`~repro.workload.Workload` shaped like a recognizable traffic
pattern:

* :func:`steady_trace` — the same collective arriving phase after
  phase (a training job in steady state);
* :func:`bursty_trace` — periodic message-size bursts (checkpointing,
  logging, or batched parameter pulls riding on a steady flow);
* :func:`training_loop_trace` — a forward/backward/optimizer cycle of
  allgather, reduce-scatter, and allreduce phases, optionally
  *phase-shifted* so successive iterations rotate the cycle (pipelined
  stages whose collectives drift relative to each other);
* :func:`moe_trace` — Mixture-of-Experts layers alternating a dense
  allreduce with an expert-dispatch all-to-all.

:func:`faulty` is a *transformer* rather than a generator: it takes any
workload and overlays a failure/repair process on its phases — the
fabric degrades for a stretch of phases, repairs, and degrades again —
so the online policies can be compared on imperfect fabrics.

The *stochastic* generators draw their traffic from seeded random
processes, the raw material of the online-control loop
(:mod:`repro.control`):

* :func:`poisson_multitenant_trace` — tenant jobs arrive by a Poisson
  process, live an exponential lifetime, and time-share the fabric
  round-robin (arrivals and departures change which collective each
  slot carries);
* :func:`drifting_moe_trace` — MoE expert popularity as a random walk
  on the gate logits, so the expert-dispatch all-to-all swells and
  shrinks with the hottest expert's load;
* :func:`piecewise_stationary_trace` — demand constant within a
  segment, jumping to a fresh seeded level at each boundary (the
  canonical regret-analysis trace: a static plan is wrong on most
  segments, a clairvoyant one never is).

Every generator — stochastic ones included — is a pure function of its
arguments: the same ``(args, seed)`` always expand to the same
workload, which is what makes simulated workload sweeps (and the
golden fixtures) reproducible.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from ..exceptions import WorkloadError
from ..fabric.degradation import FabricHealth, random_failures
from ..planner import Scenario
from .spec import Workload

__all__ = [
    "steady_trace",
    "bursty_trace",
    "training_loop_trace",
    "moe_trace",
    "faulty",
    "poisson_arrivals",
    "poisson_multitenant_trace",
    "drifting_moe_trace",
    "piecewise_stationary_trace",
]

#: Default forward/backward/optimizer cycle of one training iteration:
#: (collective algorithm, message-size scale relative to the base).
DEFAULT_TRAINING_CYCLE: tuple[tuple[str, float], ...] = (
    ("allgather_recursive_doubling", 0.5),
    ("reduce_scatter_halving", 0.5),
    ("allreduce_recursive_doubling", 1.0),
)


def _positive_phases(phases: int, what: str) -> int:
    phases = int(phases)
    if phases < 1:
        raise WorkloadError(f"{what} needs at least one phase, got {phases}")
    return phases


def steady_trace(base: Scenario, phases: int, name: str = "steady") -> Workload:
    """``phases`` identical arrivals of the base scenario's collective."""
    phases = _positive_phases(phases, "steady_trace")
    return Workload(
        phases=tuple(
            base.replace(name=f"{name}[{index}]") for index in range(phases)
        ),
        name=name,
    )


def bursty_trace(
    base: Scenario,
    phases: int,
    period: int = 4,
    burst_scale: float = 8.0,
    name: str = "bursty",
) -> Workload:
    """A steady flow whose every ``period``-th phase bursts.

    Burst phases carry ``burst_scale`` times the base message size —
    the classic elephant-on-mice pattern that makes a fixed
    reconfigure-or-not choice wrong in one direction or the other.
    """
    phases = _positive_phases(phases, "bursty_trace")
    if period < 1:
        raise WorkloadError(f"period must be >= 1, got {period}")
    if burst_scale <= 0:
        raise WorkloadError(f"burst_scale must be positive, got {burst_scale}")
    out = []
    for index in range(phases):
        bursting = index % period == period - 1
        scale = burst_scale if bursting else 1.0
        out.append(
            base.replace(
                message_size=base.collective.message_size * scale,
                name=f"{name}[{index}]" + ("!" if bursting else ""),
            )
        )
    return Workload(phases=tuple(out), name=name)


def training_loop_trace(
    base: Scenario,
    iterations: int,
    cycle: Sequence[tuple[str, float]] = DEFAULT_TRAINING_CYCLE,
    shift: int = 0,
    name: str = "training",
) -> Workload:
    """``iterations`` repetitions of a training iteration's collectives.

    Each iteration expands the ``cycle`` of ``(algorithm, message-size
    scale)`` pairs into one phase per entry.  With ``shift > 0`` the
    cycle is rotated by ``shift * iteration`` positions — a
    phase-shifted loop where, e.g., one pipeline stage's backward pass
    overlaps another's forward, so the fabric sees the collectives in a
    drifting order.  The default cycle (allgather, reduce-scatter,
    allreduce at half/half/full message size) requires a power-of-two
    rank count, like the collectives it names.
    """
    iterations = _positive_phases(iterations, "training_loop_trace")
    cycle = tuple((str(a), float(s)) for a, s in cycle)
    if not cycle:
        raise WorkloadError("training_loop_trace needs a non-empty cycle")
    for algorithm, scale in cycle:
        if scale <= 0:
            raise WorkloadError(
                f"cycle scale for {algorithm!r} must be positive, got {scale}"
            )
    out = []
    for iteration in range(iterations):
        for offset in range(len(cycle)):
            algorithm, scale = cycle[(offset + iteration * shift) % len(cycle)]
            out.append(
                base.replace(
                    algorithm=algorithm,
                    message_size=base.collective.message_size * scale,
                    name=f"{name}[{iteration}].{algorithm}",
                )
            )
    return Workload(phases=tuple(out), name=name)


def moe_trace(
    base: Scenario,
    layers: int,
    alltoall_scale: float = 0.25,
    name: str = "moe",
) -> Workload:
    """Mixture-of-Experts traffic: per layer, a dense allreduce followed
    by an expert-dispatch all-to-all at ``alltoall_scale`` times the
    base message size."""
    layers = _positive_phases(layers, "moe_trace")
    if alltoall_scale <= 0:
        raise WorkloadError(
            f"alltoall_scale must be positive, got {alltoall_scale}"
        )
    out = []
    for layer in range(layers):
        out.append(
            base.replace(
                algorithm="allreduce_recursive_doubling",
                name=f"{name}[{layer}].allreduce",
            )
        )
        out.append(
            base.replace(
                algorithm="alltoall",
                message_size=base.collective.message_size * alltoall_scale,
                name=f"{name}[{layer}].alltoall",
            )
        )
    return Workload(phases=tuple(out), name=name)


def faulty(
    trace: Workload,
    mtbf: float,
    seed: int,
    health: FabricHealth | None = None,
    mttr: int = 2,
    name: str = "",
) -> Workload:
    """Overlay a failure/repair process on an existing workload.

    Walks the phases of ``trace`` with a deterministic RNG: while the
    fabric is healthy, each phase boundary triggers a failure with
    probability ``1 / mtbf`` (``mtbf`` = mean phases between failures);
    a failure degrades the next ``mttr`` phases to ``health`` (default:
    a fresh :func:`~repro.fabric.random_failures` pattern per outage,
    derived from ``seed``) and then repairs.  Degraded phases carry the
    condition in their :attr:`~repro.planner.Scenario.health` field and
    a ``~`` name suffix, so every downstream layer — planning policies,
    the phase-chained simulator, :func:`~repro.analysis.compare_policies`
    — prices the outage without further plumbing.

    Same ``(trace, mtbf, seed, ...)`` arguments, same workload.
    """
    if mtbf < 1:
        raise WorkloadError(f"mtbf must be >= 1 phase, got {mtbf}")
    mttr = int(mttr)  # outages last whole phases; a float would leave
    if mttr < 1:      # outage_left stuck between 0 and 1 forever
        raise WorkloadError(f"mttr must be >= 1 phase, got {mttr}")
    rng = random.Random(int(seed))
    n = trace.n
    phases = []
    outage_left = 0
    outage_health: FabricHealth | None = None
    for phase in trace.phases:
        if outage_left == 0 and rng.random() < 1.0 / mtbf:
            outage_left = mttr
            outage_health = (
                health
                if health is not None
                else random_failures(
                    n, seed=rng.randrange(2**31), failures=1,
                    dim_fraction=0.25,
                )
            )
        if outage_left > 0:
            assert outage_health is not None
            # An outage lands ON TOP of whatever condition the phase
            # already carries — a fault never repairs prior degradation.
            effective = (
                phase.health.compose(outage_health)
                if phase.health is not None
                else outage_health
            )
            phases.append(
                phase.replace(health=effective, name=f"{phase.name}~")
            )
            outage_left -= 1
        else:
            phases.append(phase)
    return Workload(
        phases=tuple(phases), name=name or f"{trace.name}+faults(seed={seed})"
    )


#: Tenant archetypes for the multi-tenant generator: (algorithm,
#: message-size scale).  All algorithms here accept any power-of-two
#: rank count, like the deterministic traces above.
DEFAULT_TENANT_PALETTE: tuple[tuple[str, float], ...] = (
    ("allreduce_recursive_doubling", 1.0),
    ("alltoall", 0.25),
    ("allgather_recursive_doubling", 0.5),
    ("reduce_scatter_halving", 0.5),
)


def poisson_arrivals(
    rate: float, horizon: float, seed: int
) -> tuple[float, ...]:
    """Arrival times of a Poisson process on ``[0, horizon)``.

    Inter-arrival gaps are drawn i.i.d. exponential with mean
    ``1 / rate`` from ``random.Random(seed)``; the running sum is cut
    at ``horizon``.  Exposed on its own (rather than buried inside
    :func:`poisson_multitenant_trace`) so the statistical tests can
    check the empirical inter-arrival mean against its confidence
    bounds without re-deriving the trace machinery.
    """
    if rate <= 0:
        raise WorkloadError(f"arrival rate must be positive, got {rate}")
    if horizon <= 0:
        raise WorkloadError(f"horizon must be positive, got {horizon}")
    rng = random.Random(int(seed))
    arrivals = []
    t = rng.expovariate(rate)
    while t < horizon:
        arrivals.append(t)
        t += rng.expovariate(rate)
    return tuple(arrivals)


def poisson_multitenant_trace(
    base: Scenario,
    slots: int,
    seed: int,
    arrival_rate: float = 0.5,
    mean_lifetime: float = 6.0,
    palette: Sequence[tuple[str, float]] = DEFAULT_TENANT_PALETTE,
    name: str = "poisson",
) -> Workload:
    """Multi-tenant traffic: Poisson job arrivals time-sharing the fabric.

    Jobs arrive on the slot axis by a Poisson process of intensity
    ``arrival_rate`` (jobs per slot) and live an exponential lifetime
    with mean ``mean_lifetime`` slots; each draws an ``(algorithm,
    message-size scale)`` archetype from ``palette``.  A job is always
    planted at slot 0 so the trace never opens idle.  Each of the
    ``slots`` phases carries the collective of one *active* job,
    rotating round-robin across the active set — the discrete-time
    picture of tenants time-sharing one reconfigurable domain.  Slots
    where every job has departed fall back to the base collective at
    1/8 scale (control-plane keepalive traffic).

    Same ``(base, slots, seed, ...)`` arguments, same workload.
    """
    slots = _positive_phases(slots, "poisson_multitenant_trace")
    if mean_lifetime <= 0:
        raise WorkloadError(
            f"mean_lifetime must be positive, got {mean_lifetime}"
        )
    palette = tuple((str(a), float(s)) for a, s in palette)
    if not palette:
        raise WorkloadError("poisson_multitenant_trace needs a palette")
    for algorithm, scale in palette:
        if scale <= 0:
            raise WorkloadError(
                f"palette scale for {algorithm!r} must be positive, "
                f"got {scale}"
            )
    rng = random.Random(int(seed))
    # Job schedule first, phases second, so arrival sampling is not
    # interleaved with (and perturbed by) per-slot draws.
    starts = (0.0,) + poisson_arrivals(
        arrival_rate, float(slots), seed=rng.randrange(2**31)
    )
    jobs = []  # (start, end, job id, algorithm, scale)
    for job_id, start in enumerate(starts):
        lifetime = rng.expovariate(1.0 / mean_lifetime)
        algorithm, scale = palette[rng.randrange(len(palette))]
        jobs.append((start, start + lifetime, job_id, algorithm, scale))
    phases = []
    for slot in range(slots):
        active = [job for job in jobs if job[0] <= slot < job[1]]
        if active:
            _, _, job_id, algorithm, scale = active[slot % len(active)]
            phases.append(
                base.replace(
                    algorithm=algorithm,
                    message_size=base.collective.message_size * scale,
                    name=f"{name}[{slot}].job{job_id}",
                )
            )
        else:
            phases.append(
                base.replace(
                    message_size=base.collective.message_size * 0.125,
                    name=f"{name}[{slot}].idle",
                )
            )
    return Workload(phases=tuple(phases), name=f"{name}(seed={seed})")


def drifting_moe_trace(
    base: Scenario,
    layers: int,
    seed: int,
    experts: int = 8,
    drift: float = 0.5,
    alltoall_scale: float = 0.25,
    name: str = "drifting-moe",
) -> Workload:
    """MoE traffic whose expert popularity drifts layer to layer.

    Like :func:`moe_trace` — per layer a dense allreduce then an
    expert-dispatch all-to-all — but the gate distribution over
    ``experts`` experts evolves as a Gaussian random walk on the
    logits (step ``drift``).  The all-to-all message size scales with
    the *hottest* expert's load factor, ``experts * max(softmax)``,
    which is 1 under a uniform gate and approaches ``experts`` as one
    expert captures the batch: dispatch volume tracks the straggling
    expert.  The allreduce is demand-stationary, as in real MoE — only
    the dispatch traffic drifts.

    Same ``(base, layers, seed, ...)`` arguments, same workload.
    """
    layers = _positive_phases(layers, "drifting_moe_trace")
    experts = int(experts)
    if experts < 2:
        raise WorkloadError(f"experts must be >= 2, got {experts}")
    if drift < 0:
        raise WorkloadError(f"drift must be non-negative, got {drift}")
    if alltoall_scale <= 0:
        raise WorkloadError(
            f"alltoall_scale must be positive, got {alltoall_scale}"
        )
    rng = random.Random(int(seed))
    logits = [0.0] * experts
    phases = []
    for layer in range(layers):
        logits = [logit + rng.gauss(0.0, drift) for logit in logits]
        peak = max(logits)
        gates = [math.exp(logit - peak) for logit in logits]
        load_factor = experts * max(gates) / sum(gates)
        phases.append(
            base.replace(
                algorithm="allreduce_recursive_doubling",
                name=f"{name}[{layer}].allreduce",
            )
        )
        phases.append(
            base.replace(
                algorithm="alltoall",
                message_size=(
                    base.collective.message_size
                    * alltoall_scale
                    * load_factor
                ),
                name=f"{name}[{layer}].alltoall",
            )
        )
    return Workload(phases=tuple(phases), name=f"{name}(seed={seed})")


def piecewise_stationary_trace(
    base: Scenario,
    segments: int,
    segment_length: int,
    seed: int,
    scale_range: tuple[float, float] = (0.03125, 32.0),
    name: str = "piecewise",
) -> Workload:
    """Piecewise-stationary demand: constant within a segment, jumping
    between them.

    Each of the ``segments`` segments holds the base collective at a
    message-size scale drawn log-uniformly from ``scale_range`` for
    ``segment_length`` consecutive phases, then jumps to a fresh draw.
    The span of the default range crosses the reconfigure-or-not
    break-even both ways, so a plan committed under one segment's
    demand is wrong on most others — the canonical trace for regret
    analysis: an estimator locks onto each segment after one observed
    phase, a static prior never does, a clairvoyant oracle is never
    wrong.

    Same ``(base, segments, segment_length, seed, ...)`` arguments,
    same workload.
    """
    segments = _positive_phases(segments, "piecewise_stationary_trace")
    segment_length = _positive_phases(
        segment_length, "piecewise_stationary_trace segment"
    )
    low, high = (float(scale_range[0]), float(scale_range[1]))
    if low <= 0 or high <= 0 or high < low:
        raise WorkloadError(
            f"scale_range must be positive with low <= high, "
            f"got ({low}, {high})"
        )
    rng = random.Random(int(seed))
    phases = []
    for segment in range(segments):
        scale = math.exp(rng.uniform(math.log(low), math.log(high)))
        for offset in range(segment_length):
            phases.append(
                base.replace(
                    message_size=base.collective.message_size * scale,
                    name=f"{name}[{segment}.{offset}]",
                )
            )
    return Workload(phases=tuple(phases), name=f"{name}(seed={seed})")
