"""Event journal: the one record of a deployment's protocol events.

Production distributed systems live and die by their observability; the
simulator mirrors that with a lightweight journal every deployment owns.
Components emit one :class:`TraceEvent` per protocol milestone — block
allocation, pipeline open/close, FNFA, recovery, datanode death — and
every consumer reads that same list in place: tests, examples, the
Chrome trace exporter (a :class:`~repro.obs.Tracer` keeps a reference to
its deployment's journal and exports the events as instants) and the
chaos :class:`~repro.faults.invariants.InvariantMonitor` (which checks
the events of its run when it stops).

The journal is append-only, and :meth:`Journal.emit` is one list append.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = ["TraceEvent", "Journal"]


@dataclass(frozen=True)
class TraceEvent:
    """One protocol milestone."""

    time: float
    kind: str
    subject: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.time:10.3f}s] {self.kind:<16s} {self.subject} {details}"


class Journal:
    """Append-only record of a deployment's protocol events."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def restore_events(self, events: "list[TraceEvent] | tuple[TraceEvent, ...]") -> None:
        """Replace the whole event list (checkpoint restore path)."""
        self._events = list(events)

    # -- writing ------------------------------------------------------------
    def emit(self, time: float, kind: str, subject: str, **details: object) -> None:
        self._events.append(TraceEvent(time, kind, subject, details))

    # -- reading ------------------------------------------------------------
    def events(
        self, kind: Optional[str] = None, subject: Optional[str] = None
    ) -> tuple[TraceEvent, ...]:
        """Events in emission order, optionally filtered."""
        return tuple(
            e
            for e in self._events
            if (kind is None or e.kind == kind)
            and (subject is None or e.subject == subject)
        )

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)
