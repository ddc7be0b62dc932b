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

A run's telemetry is one :class:`RateObservations` block of numpy
columns, read as a sequence of rows.  Rows round-trip through plain
lists (:meth:`RateObservation.to_row` / :meth:`from_row`, the one
parser of rows from outside the process) so results that carry them —
``SimResult``, ``PhaseSimResult``, service payloads — stay
JSON-serializable and survive a JSON round trip bit for bit.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter, eq

import numpy as np

from ..exceptions import SimulationError

__all__ = [
    "RateObservation",
    "RateObservations",
    "observations_to_rows",
    "observations_from_rows",
]


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
        """Inverse of :meth:`to_row`; raises
        :class:`~repro.exceptions.SimulationError` for a row no simulator
        records."""
        if len(row) != 8:
            raise SimulationError(
                f"a rate-observation row has 8 fields, got {len(row)}"
            )
        *fields, decision = row
        step, src, dst, rate, start, end, hops = fields
        problem = (
            "step, src, dst, rate, start, end and hops must be finite numbers"
            if not all(
                isinstance(v, numbers.Real)
                and not isinstance(v, bool)
                and math.isfinite(v)
                for v in fields
            )
            else "step, src and dst must be non-negative integers"
            if any(v < 0 or not float(v).is_integer() for v in (step, src, dst))
            else "rate must be positive" if not rate > 0
            else "end must not precede start" if end < start
            else "hops must be >= 0" if hops < 0
            else "decision must be 'base' or 'matched'"
            if decision not in ("base", "matched")
            else None
        )
        if problem is not None:
            raise SimulationError(f"rate-observation row {list(row)!r}: {problem}")
        return cls(
            int(step), int(src), int(dst), float(rate), float(start),
            float(end), float(hops), decision,
        )


class _ColumnBlock(Sequence):
    """Read-only numpy columns that read as a sequence of frozen rows.

    A subclass names its row dataclass (``_row``) and its columns
    (``_columns``: ``(name, dtype)`` pairs in the row's field order).
    ``len``, indexing, iteration and ``==`` go through the rows, so a
    block equals any sequence of equal rows (``== ()`` when empty); a
    slice is a block over the sliced columns.  A block is immutable (its
    attributes cannot be rebound), so one can be shared between callers.
    """

    _row: type
    _columns: tuple[tuple[str, type], ...]

    def __init__(self, *columns: object) -> None:
        empty = [()] * len(self._columns)
        for (name, dtype), values in zip(self._columns, columns or empty, strict=True):
            column = np.asarray(values, dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"{type(self).__name__} blocks are immutable")

    __delattr__ = __setattr__

    @classmethod
    def of(cls, rows: Sequence) -> "_ColumnBlock":
        """``rows`` as a block (a block of this type passes through)."""
        if isinstance(rows, cls):
            return rows
        return cls(*(cls._column(rows, *column) for column in cls._columns))

    @staticmethod
    def _column(rows: Sequence, name: str, dtype: type) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), rows), dtype, len(rows))

    def _cells(self) -> list[list]:
        """Each column as a list of Python scalars, in row-field order."""
        return [getattr(self, name).tolist() for name, _ in self._columns]

    def __len__(self) -> int:
        return len(getattr(self, self._columns[0][0]))

    def __iter__(self):
        return map(self._row, *self._cells())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(getattr(self, n)[index] for n, _ in self._columns))
        at = range(len(self))[index]
        return next(iter(self[at : at + 1]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


class RateObservations(_ColumnBlock):
    """A run's telemetry: read-only columns ``step``, ``src``, ``dst``
    (int64), ``rate``, ``start``, ``end``, ``hops`` (float64) and
    ``matched`` (bool), in execution order, read as a sequence of
    :class:`RateObservation` rows."""

    _row = RateObservation
    _columns = (
        ("step", np.int64),
        ("src", np.int64),
        ("dst", np.int64),
        ("rate", np.float64),
        ("start", np.float64),
        ("end", np.float64),
        ("hops", np.float64),
        ("matched", np.bool_),
    )

    @staticmethod
    def _column(rows: Sequence, name: str, dtype: type) -> np.ndarray:
        if name == "matched":
            return np.array([row.decision == "matched" for row in rows], dtype)
        return _ColumnBlock._column(rows, name, dtype)

    def _cells(self) -> list[list]:
        cells = super()._cells()
        cells[-1] = ["matched" if m else "base" for m in cells[-1]]
        return cells

    def volumes(self, delta: float = 0.0) -> np.ndarray:
        """Every row's :meth:`RateObservation.volume`, as one array."""
        transmission = (self.end - self.start) - delta * self.hops
        short = np.flatnonzero(transmission < 0)
        if len(short):
            self[int(short[0])].volume(delta)  # raises that row's error
        return self.rate * transmission


def observations_to_rows(
    observations: Sequence[RateObservation],
) -> list[list[object]]:
    """Serialize a batch of observations to nested lists."""
    return [obs.to_row() for obs in observations]


def observations_from_rows(rows: Sequence[Sequence[object]]) -> RateObservations:
    """Inverse of :func:`observations_to_rows`."""
    return RateObservations.of([RateObservation.from_row(row) for row in rows])
