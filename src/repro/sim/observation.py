"""Per-flow rate observations: what a controller can actually see.

The flow-level simulator knows everything — demand matrices, schedules,
the fabric's true condition.  A *controller* outside the simulator sees
none of that: it sees flows, each carrying some achieved rate for some
interval on some path.  :class:`RateObservation` is that telemetry row,
recorded by :meth:`FlowLevelSimulator.run(observe_rates=True)
<repro.sim.FlowLevelSimulator.run>` for every flow of every executed
step.

Observed rates are *censored* twice:

* **allocation-censored** — the rate is whatever the allocator granted
  under the current configuration (a base step's mcf share, a matched
  step's circuit rate), not the tenant's desired rate;
* **demand-censored** — a flow stops when its volume is exhausted, so
  the rate alone says nothing about *how much* was sent.

Both censorings undo exactly, because each row carries its transmission
window and path length: the volume a flow shipped is
``rate * (end - start - delta * hops)`` — the observed interval minus
the propagation term the simulator charged (``delta`` per hop).  The
de-censoring aggregation lives in
:func:`repro.control.demand_from_observations`; this module only
defines the telemetry schema, so the simulator does not depend on the
control layer.

Rows round-trip through plain lists (:meth:`RateObservation.to_row` /
:meth:`from_row`) so results that carry them — ``SimResult``,
``PhaseSimResult``, service payloads — stay JSON-serializable and
survive a JSON round trip bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..exceptions import SimulationError

__all__ = ["RateObservation", "observations_to_rows", "observations_from_rows"]


@dataclass(frozen=True)
class RateObservation:
    """One flow's achieved rate over one transmission window.

    Attributes
    ----------
    step:
        Index of the collective step the flow belonged to.
    src, dst:
        The communicating pair (ranks on the shared fabric).
    rate:
        Achieved rate in bits/second under the configuration the step
        ran on (circuit rate for matched steps, allocator share for
        base steps).
    start:
        When the flow began transmitting (after the step's barrier and
        alpha), on the simulation clock.
    end:
        When the flow's last bit *arrived* — transmission plus the
        per-hop propagation term.
    hops:
        Path length the propagation term was charged for (1.0 on a
        dedicated circuit).
    decision:
        ``"base"`` or ``"matched"`` — which configuration served the
        flow.  Observable: the controller issued the schedule.
    """

    step: int
    src: int
    dst: int
    rate: float
    start: float
    end: float
    hops: float
    decision: str

    @property
    def duration(self) -> float:
        """Wall-clock length of the observation window."""
        return self.end - self.start

    def volume(self, delta: float = 0.0) -> float:
        """De-censored bits shipped: ``rate * (duration - delta*hops)``.

        ``delta`` is the cost model's per-hop propagation term; the
        simulator ends a flow when its last bit lands, so the pure
        transmission time is the window minus ``delta * hops``.
        """
        transmission = self.duration - delta * self.hops
        if transmission < 0:
            raise SimulationError(
                f"observation window {self.duration} shorter than its own "
                f"propagation term {delta * self.hops} (delta={delta})"
            )
        return self.rate * transmission

    def to_row(self) -> list[object]:
        """Compact list form (JSON-serializable)."""
        return [
            self.step,
            self.src,
            self.dst,
            self.rate,
            self.start,
            self.end,
            self.hops,
            self.decision,
        ]

    @classmethod
    def from_row(cls, row: Sequence[object]) -> "RateObservation":
        """Inverse of :meth:`to_row`."""
        if len(row) != 8:
            raise SimulationError(
                f"a rate-observation row has 8 fields, got {len(row)}"
            )
        return cls(
            step=int(row[0]),
            src=int(row[1]),
            dst=int(row[2]),
            rate=float(row[3]),
            start=float(row[4]),
            end=float(row[5]),
            hops=float(row[6]),
            decision=str(row[7]),
        )


def observations_to_rows(
    observations: Sequence[RateObservation],
) -> list[list[object]]:
    """Serialize a batch of observations to nested lists."""
    return [obs.to_row() for obs in observations]


def observations_from_rows(rows: Sequence[Sequence[object]]) -> tuple:
    """Inverse of :func:`observations_to_rows`."""
    return tuple(RateObservation.from_row(row) for row in rows)
