"""Simulation traces: a typed event log with reporting helpers."""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass, field
from collections.abc import Iterator
from operator import attrgetter

from ..units import format_time

__all__ = ["EventKind", "TraceEvent", "Trace"]


class EventKind(enum.Enum):
    """What happened at a trace timestamp."""

    RECONFIG_START = "reconfig_start"
    RECONFIG_END = "reconfig_end"
    BARRIER = "barrier"
    STEP_START = "step_start"
    TRANSFER_END = "transfer_end"
    STEP_END = "step_end"
    COMPUTE_END = "compute_end"
    COLLECTIVE_END = "collective_end"
    PHASE_START = "phase_start"
    PHASE_END = "phase_end"
    FAULT_INJECT = "fault_inject"
    FAULT_REPAIR = "fault_repair"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped simulator event."""

    time: float
    kind: EventKind
    step: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        step = f" step={self.step}" if self.step is not None else ""
        detail = f" {self.detail}" if self.detail else ""
        return f"[{format_time(self.time):>10}] {self.kind.value}{step}{detail}"


_event_time = attrgetter("time")


@dataclass
class Trace:
    """An append-only, time-ordered event log."""

    events: list[TraceEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        # A stable sort keeps equal-time events in the order given, so
        # building a trace from a list of events orders it exactly as
        # record()-ing them one by one would.
        self.events.sort(key=_event_time)
        if self.events and self.events[0].time < 0:
            raise ValueError(f"negative event time {self.events[0].time}")

    def record(
        self,
        time: float,
        kind: EventKind,
        step: int | None = None,
        detail: str = "",
    ) -> None:
        """Insert one event in time order.

        Events may be recorded slightly out of order (overlapped
        reconfiguration starts before the preceding compute window
        ends); readers see them time-sorted, and events with equal
        timestamps in recording order.
        """
        if time < 0:
            raise ValueError(f"negative event time {time}")
        insort(self.events, TraceEvent(time, kind, step, detail), key=_event_time)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: EventKind) -> list[TraceEvent]:
        """All events of one kind, in time order."""
        return [e for e in self.events if e.kind is kind]

    @property
    def total_time(self) -> float:
        """Timestamp of the final event (0.0 for an empty trace)."""
        return self.events[-1].time if self.events else 0.0

    def reconfiguration_time(self) -> float:
        """Total time spent between reconfig start/end pairs."""
        total = 0.0
        start: float | None = None
        for event in self.events:
            if event.kind is EventKind.RECONFIG_START:
                start = event.time
            elif event.kind is EventKind.RECONFIG_END:
                if start is None:
                    raise ValueError("RECONFIG_END without RECONFIG_START")
                total += event.time - start
                start = None
        return total

    def communication_time(self) -> float:
        """Total time spent inside steps (start to end)."""
        total = 0.0
        starts: dict[int, float] = {}
        for event in self.events:
            if event.kind is EventKind.STEP_START and event.step is not None:
                starts[event.step] = event.time
            elif event.kind is EventKind.STEP_END and event.step is not None:
                total += event.time - starts.pop(event.step)
        return total

    def render(self, limit: int | None = None) -> str:
        """Human-readable multi-line log (optionally truncated)."""
        events = self.events if limit is None else self.events[:limit]
        lines = [str(event) for event in events]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)
