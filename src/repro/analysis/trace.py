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
A long run keeps every event it emitted, so an event is a slotted record
of five references: its time, kind and subject, the tuple of its detail
names (one tuple per distinct name sequence, shared by every event from
the same call site) and the tuple of its detail values.  The ``details``
dict is built when it is read.
"""

from __future__ import annotations

from typing import Iterator, Optional

__all__ = ["TraceEvent", "Journal"]

#: Each distinct sequence of detail names, kept once: every event with
#: the same names refers to the same tuple.
_NAMES: dict[tuple[str, ...], tuple[str, ...]] = {}


class TraceEvent:
    """One protocol milestone (treat it as immutable).

    ``TraceEvent(time, kind, subject, details)`` keeps ``details`` as a
    shared name tuple and a value tuple; :attr:`details` renders them as
    a new dict, in emission order, on each read.
    """

    __slots__ = ("time", "kind", "subject", "_names", "_values")

    def __init__(
        self,
        time: float,
        kind: str,
        subject: str,
        details: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.kind = kind
        self.subject = subject
        if details:
            names = tuple(details)
            self._names = _NAMES.setdefault(names, names)
            self._values = tuple(details.values())
        else:
            self._names = self._values = ()

    @property
    def details(self) -> dict:
        """The event's details as a new dict (names in emission order)."""
        return dict(zip(self._names, self._values))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return (self.time, self.kind, self.subject, self.details) == (
            other.time, other.kind, other.subject, other.details
        )

    def __reduce__(self):
        return TraceEvent, (self.time, self.kind, self.subject, self.details)

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, "
            f"subject={self.subject!r}, details={self.details!r})"
        )

    def __str__(self) -> str:
        details = " ".join(
            f"{k}={v}" for k, v in zip(self._names, self._values)
        )
        return f"[{self.time:10.3f}s] {self.kind:<16s} {self.subject} {details}"


class Journal:
    """Append-only record of a deployment's protocol events."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

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
