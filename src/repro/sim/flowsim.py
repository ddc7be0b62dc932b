"""The flow-level simulator (paper §3.4: "we conduct preliminary
evaluations using a flow-level simulator").

Executes a collective under a circuit-switching schedule on a base
topology and records one :class:`SimStep` row per step:

1. (if the step's configuration differs from the standing one) a
   reconfiguration interval,
2. a barrier + step launch (the ``alpha`` term),
3. concurrent flows at allocated rates; the step ends when the slowest
   pair finishes (transmission + propagation),
4. optional per-step compute, which may overlap the next
   reconfiguration (``compute_overlap=True``).

Two reconfiguration accounting modes:

* ``"paper"`` — Eq. 7 semantics: ``alpha_r`` is charged whenever not
  both of steps ``i-1, i`` run on the base topology (even for identical
  consecutive matched configurations);
* ``"physical"`` — circuits are tracked explicitly and transitions are
  priced by a :class:`~repro.fabric.reconfiguration.ReconfigurationModel`
  (identical configurations are free, per-port models supported).

With ``rate_method="mcf"`` and ``"paper"`` accounting the simulated
total provably equals the analytic Eq. 7 objective; the test suite
asserts this equivalence step for step.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .._validation import require_field as _require
from ..collectives.base import Collective
from ..core.cost_model import CostParameters
from ..core.schedule import Decision, Schedule
from ..exceptions import SimulationError
from ..fabric.degradation import FabricHealth, FaultEvent
from ..fabric.reconfiguration import (
    Configuration,
    ConstantReconfigurationDelay,
    ReconfigurationModel,
    configuration_from_matching,
    configuration_from_topology,
)
from ..flows import ThroughputCache, default_cache
from ..matching import Matching
from ..topology.base import Topology
from .observation import RateObservations
from .rates import FlowRates, allocate_rates

__all__ = ["SimStep", "SimulationResult", "FlowLevelSimulator"]

_ACCOUNTING_MODES = ("paper", "physical")


@dataclass(frozen=True)
class SimStep:
    """Measured timing of one executed collective step.

    Attributes
    ----------
    index:
        Step position within the collective.
    decision:
        Normalized label: ``"base"`` or ``"matched"``.
    label:
        The collective step's own label (e.g. ``"rs t=3"``).
    reconfiguration:
        Reconfiguration delay charged before this step, in seconds.
    start:
        Barrier time — when all ranks are ready to launch the step.
    end:
        When the slowest pair finished (transmission + propagation).
    slowest_pair:
        The ``(src, dst)`` pair that finished last, or ``None`` for an
        empty step.
    """

    index: int
    decision: str
    label: str
    reconfiguration: float
    start: float
    end: float
    slowest_pair: tuple[int, int] | None

    @property
    def duration(self) -> float:
        """Communication time of the step (alpha included,
        reconfiguration and compute excluded)."""
        return self.end - self.start

    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (JSON-serializable)."""
        return {
            "index": self.index,
            "decision": self.decision,
            "label": self.label,
            "reconfiguration": self.reconfiguration,
            "start": self.start,
            "end": self.end,
            "slowest_pair": (
                None if self.slowest_pair is None else list(self.slowest_pair)
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SimStep":
        """Inverse of :meth:`to_dict`."""
        pair = data.get("slowest_pair")
        return cls(
            index=int(_require(data, "index", "sim step")),
            decision=str(_require(data, "decision", "sim step")),
            label=str(data.get("label", "")),
            reconfiguration=float(_require(data, "reconfiguration", "sim step")),
            start=float(_require(data, "start", "sim step")),
            end=float(_require(data, "end", "sim step")),
            slowest_pair=None if pair is None else (pair[0], pair[1]),
        )


@dataclass(frozen=True)
class SimulationResult:
    """Complete outcome of one simulated collective.

    ``final_configuration`` is the circuit set the fabric holds when
    the collective ends — the state a subsequent collective on the same
    fabric inherits.  Only tracked under ``"physical"`` accounting
    (``None`` for ``"paper"``, which never models explicit circuits).

    ``fault_log`` records the mid-run health changes actually applied:
    ``(time, kind, label)`` rows where kind is ``"inject"`` or
    ``"repair"`` (empty when the run had no fault schedule).

    ``fault_pod_log`` localizes each applied health transition on
    pod-structured fabrics: ``(time, dirty_pods)`` rows aligned with
    ``fault_log``, where ``dirty_pods`` is the tuple of pod indices the
    transition touched (as diffed by
    :class:`~repro.flows.DeltaIndex`) — the pods an incremental
    replanner would re-solve.  Empty on flat fabrics and fault-free
    runs.

    ``rate_observations`` is the per-flow telemetry an external
    controller would see (one :class:`~repro.sim.RateObservations`
    block, a row per flow per step, in execution order) — only
    collected when the run was started with ``observe_rates=True``.
    """

    total_time: float
    steps: tuple[SimStep, ...]
    reconfiguration_time: float
    n_reconfigurations: int
    final_configuration: Configuration | None = None
    fault_log: tuple[tuple[float, str, str], ...] = ()
    fault_pod_log: tuple[tuple[float, tuple[int, ...]], ...] = ()
    rate_observations: RateObservations | tuple[()] = ()

    @property
    def communication_time(self) -> float:
        """Sum of per-step communication durations."""
        return sum(step.duration for step in self.steps)


class FlowLevelSimulator:
    """Simulates collectives over a reconfigurable photonic domain.

    Parameters
    ----------
    topology:
        The base (standing) topology ``G``.
    params:
        Cost model scalars; ``params.bandwidth`` is the circuit rate of
        matched configurations.
    rate_method:
        Flow rate allocation on the base topology (``"mcf"``,
        ``"maxmin"`` or ``"equal"``).
    accounting:
        Reconfiguration accounting mode (see module docstring).
    reconfiguration_model:
        Only for ``"physical"`` accounting; defaults to a constant
        ``params.reconfiguration_delay``.
    health:
        Optional :class:`~repro.fabric.FabricHealth` — the fabric's
        standing condition.  ``topology`` is the *intended* base fabric;
        flows run on ``health.apply(topology)`` and matched circuits at
        multiplier-scaled rates.  Physical accounting tracks circuit
        *identity* against the intended topology (a dark lane is still
        a standing circuit — it just carries nothing), so analytic
        reconfiguration charges stay comparable across health states.
    """

    def __init__(
        self,
        topology: Topology,
        params: CostParameters,
        rate_method: str = "mcf",
        accounting: str = "paper",
        reconfiguration_model: ReconfigurationModel | None = None,
        cache: ThroughputCache | None = default_cache,
        health: FabricHealth | None = None,
        live_topology: Topology | None = None,
    ):
        if accounting not in _ACCOUNTING_MODES:
            raise SimulationError(
                f"unknown accounting {accounting!r}; choose from {_ACCOUNTING_MODES}"
            )
        self.topology = topology
        self.params = params
        self.rate_method = rate_method
        self.accounting = accounting
        self.reconfiguration_model = (
            reconfiguration_model
            if reconfiguration_model is not None
            else ConstantReconfigurationDelay(params.reconfiguration_delay)
        )
        self.cache = cache
        if health is not None and health.is_pristine:
            health = None
        self.health = health
        # `live_topology` lets callers hand in the degraded instance
        # they already hold (Scenario.build_topology memoizes one per
        # (spec, health), hop caches included) instead of re-deriving.
        self._live_topology = (
            live_topology
            if live_topology is not None
            else (topology if health is None else health.apply(topology))
        )
        if accounting == "physical":
            try:
                self._base_config: Configuration | None = configuration_from_topology(
                    topology
                )
            except Exception as exc:
                raise SimulationError(
                    "physical accounting requires a relay-free base topology"
                ) from exc
        else:
            self._base_config = None

    # -- helpers -----------------------------------------------------------------

    def _step_flows(
        self,
        matching: Matching,
        decision: Decision,
        live_topology: Topology,
        health: FabricHealth | None,
    ) -> FlowRates:
        if decision is Decision.MATCHED:
            # Paper §3.3: every pair owns a dedicated circuit, so l = 1
            # and theta = 1, gated on a degraded fabric by the slowest
            # circuit's optics -- StepCost.matched_cost's pricing.
            multiplier = (
                1.0 if health is None else health.matched_multiplier(matching)
            )
            return FlowRates.over(matching, self.params.bandwidth * multiplier, 1.0)
        return allocate_rates(
            live_topology,
            matching,
            self.params.bandwidth,
            method=self.rate_method,
            cache=self.cache,
        )

    def _reconfiguration_delay(
        self,
        previous_decision: Decision,
        decision: Decision,
        current_config: Configuration | None,
        target_config: Configuration | None,
    ) -> float:
        if self.accounting == "paper":
            both_base = (
                previous_decision is Decision.BASE and decision is Decision.BASE
            )
            return 0.0 if both_base else self.params.reconfiguration_delay
        assert current_config is not None and target_config is not None
        delay = self.reconfiguration_model.delay(current_config, target_config)
        if not delay >= 0:
            # The run's clock only moves forward: a barrier is never
            # before the wire went idle.
            raise SimulationError(
                f"{self.reconfiguration_model!r} returned delay {delay!r}; "
                "a reconfiguration delay must be >= 0"
            )
        return delay

    # -- main entry -----------------------------------------------------------------

    def run(
        self,
        collective: Collective,
        schedule: Schedule,
        compute_overlap: bool = False,
        initial_configuration: Configuration | None = None,
        faults: "tuple[FaultEvent, ...] | list[FaultEvent]" = (),
        observe_rates: bool = False,
    ) -> SimulationResult:
        """Simulate ``collective`` under ``schedule``.

        With ``compute_overlap=True``, per-step ``compute_time`` windows
        hide subsequent reconfigurations (research agenda extension).

        With ``observe_rates=True``, every flow's achieved rate and
        transmission window is recorded as a
        :class:`~repro.sim.RateObservation` row of the result's
        :class:`~repro.sim.RateObservations` block — the
        controller-facing telemetry feed (off by default; large
        collectives produce one row per pair per step).

        ``initial_configuration`` seeds the standing circuit set —
        the carried state of a previous collective on the same fabric
        (workload phase chaining).  Only meaningful under ``"physical"``
        accounting, where transitions are priced configuration to
        configuration; ``"paper"`` accounting rejects it rather than
        silently ignoring the carried state.

        ``faults`` is a time-ordered schedule of
        :class:`~repro.fabric.FaultEvent` health changes applied
        *mid-run*: each event takes effect at the first step boundary
        at or after its timestamp (a step in flight finishes at the
        rates it committed to).  An injected condition is *composed*
        with the simulator's standing ``health`` (a new fault never
        silently repairs an old one); a later injection replaces any
        previously injected overlay, and ``health=None`` repairs back
        to the standing condition.  Applications are recorded in the
        result's ``fault_log`` (and ``fault_pod_log`` on pod fabrics).
        """
        if collective.num_steps != schedule.num_steps:
            raise SimulationError(
                f"schedule has {schedule.num_steps} steps, collective "
                f"{collective.num_steps}"
            )
        if collective.n != self.topology.n_ranks:
            raise SimulationError("collective and topology rank counts differ")
        if initial_configuration is not None and self.accounting != "physical":
            raise SimulationError(
                "initial_configuration requires 'physical' accounting; "
                "'paper' accounting has no explicit circuit state to seed"
            )
        for event in faults:
            if not isinstance(event, FaultEvent):
                raise SimulationError(
                    f"faults must be FaultEvent items, got "
                    f"{type(event).__name__}"
                )
            if event.health is not None:
                # A typo'd rank or lane must not be applied as a silent
                # no-op (or a raw mid-run FabricError) while fault_log
                # reports the fault as injected.
                try:
                    event.health.validate_for(self.topology.n_ranks)
                except Exception as exc:
                    raise SimulationError(
                        f"fault at t={event.time}: {exc}"
                    ) from exc
                for u, v in event.health.failed_transceivers:
                    if not self.topology.has_edge(u, v):
                        raise SimulationError(
                            f"fault at t={event.time}: failed transceiver "
                            f"({u}, {v}) names no lane of topology "
                            f"{self.topology.name!r}"
                        )
        pending = sorted(faults, key=lambda event: event.time)

        # The run is barrier-synchronous, so its clock is one float that
        # only moves forward: each step's barrier is at or after the
        # moment the wire went idle, and its end at or after its start.
        now = 0.0
        rows: list[SimStep] = []
        reconf_total = 0.0
        n_reconf = 0
        live_topology = self._live_topology
        live_health = self.health
        fault_log: list[tuple[float, str, str]] = []
        fault_pod_log: list[tuple[float, tuple[int, ...]]] = []
        observed: list[tuple] = []  # (index, start, matched, flows, completion)
        delta_index = None
        if pending:
            from ..flows import DeltaIndex, pod_structure

            structure = pod_structure(self.topology)
            if structure is not None:
                delta_index = DeltaIndex(structure)

        previous = Decision.BASE
        current_config = (
            initial_configuration
            if initial_configuration is not None
            else self._base_config
        )
        compute_until = 0.0  # when the previous step's compute finishes

        for index, step in enumerate(collective.steps):
            while pending and pending[0].time <= now + 1e-18:
                event = pending.pop(0)
                previous_health = live_health
                if event.health is None or event.health.is_pristine:
                    live_health = self.health
                    live_topology = self._live_topology
                    kind = "repair"
                else:
                    # An injected fault lands ON TOP of the standing
                    # condition — it must never silently repair it.
                    live_health = (
                        self.health.compose(event.health)
                        if self.health is not None
                        else event.health
                    )
                    live_topology = live_health.apply(self.topology)
                    kind = "inject"
                label = event.label or (
                    "" if event.health is None else event.health.name
                )
                fault_log.append((now, kind, label))
                if delta_index is not None:
                    delta = delta_index.diff_health(previous_health, live_health)
                    dirty = (
                        tuple(range(delta_index.structure.n_pods))
                        if delta.full
                        else tuple(sorted(delta.dirty_pods))
                    )
                    fault_pod_log.append((now, dirty))
            decision = schedule.decisions[index]
            if self.accounting == "physical":
                if decision is Decision.MATCHED:
                    target_config = configuration_from_matching(step.matching)
                else:
                    target_config = self._base_config
            else:
                target_config = None
            delay = self._reconfiguration_delay(
                previous, decision, current_config, target_config
            )

            if compute_overlap:
                # Reconfiguration starts as soon as the wire is idle and
                # runs concurrently with local compute.
                barrier_time = max(compute_until, now + delay)
            else:
                barrier_time = max(compute_until, now) + delay
            if delay > 0:
                reconf_total += delay
                n_reconf += 1

            start = barrier_time + self.params.alpha
            end = start
            slowest: tuple[int, int] | None = None
            if len(step.matching) > 0:
                flows = self._step_flows(
                    step.matching, decision, live_topology, live_health
                )
                transfer = step.volume / flows.rate if step.volume > 0 else 0.0
                completion = start + transfer + self.params.delta * flows.hops
                # argmax keeps the first of equally slow flows.
                k = int(np.argmax(completion))
                if completion[k] > start:
                    end = float(completion[k])
                    slowest = (int(flows.src[k]), int(flows.dst[k]))
                if observe_rates:
                    observed.append((
                        index, start, decision is Decision.MATCHED, flows,
                        completion,
                    ))
            now = end
            compute_until = end + step.compute_time
            rows.append(SimStep(
                index, decision.value, step.label, delay, barrier_time, end,
                slowest,
            ))
            previous = decision
            if self.accounting == "physical":
                current_config = target_config

        return SimulationResult(
            total_time=max(now, compute_until),
            steps=tuple(rows),
            reconfiguration_time=reconf_total,
            n_reconfigurations=n_reconf,
            final_configuration=(
                current_config if self.accounting == "physical" else None
            ),
            fault_log=tuple(fault_log),
            fault_pod_log=tuple(fault_pod_log),
            rate_observations=(
                _observations(observed) if observe_rates else ()
            ),
        )


def _observations(observed: list[tuple]) -> RateObservations:
    """A run's telemetry block from its observed steps'
    ``(index, start, matched, flows, completion)`` records: the flow
    columns concatenated, each step's scalars repeated once per flow."""
    if not observed:
        return RateObservations()
    index, start, matched, flows, completion = zip(*observed)
    sizes = [len(column) for column in completion]
    src, dst, rate, hops = (
        np.concatenate([getattr(block, name) for block in flows])
        for name in ("src", "dst", "rate", "hops")
    )
    return RateObservations(
        np.repeat(index, sizes), src, dst, rate, np.repeat(start, sizes),
        np.concatenate(completion), hops, np.repeat(matched, sizes),
    )
