"""Simulator-time span tracing (the core of :mod:`repro.obs`).

A :class:`Tracer` records nested :class:`Span` intervals over *simulated*
time — upload → block → pipeline → {stream, store, forward, ack,
recovery} on the data path, {allocate, rank, heartbeat} on the namenode —
and refers to the protocol :class:`~repro.analysis.trace.Journal` it is
attached to, whose events the exporters read in place as instant markers
(the journal is their only record).  Spans and instants are addressed by

* an **actor** (the Chrome-trace *process*): ``client:<name>``,
  ``datanode:<name>``, ``namenode``, or ``journal`` for journal events;
* a **track** (the Chrome-trace *thread*): one lane of strictly nested
  intervals, e.g. ``b7`` for a block's client-side lifecycle or
  ``b7:store`` for one receiver's store machinery.

Design constraints, in order:

1. **Free when disabled.**  Every recording method starts with one
   ``enabled`` check and instrumentation points sit at span granularity
   (per block / pipeline / RPC), never inside the per-packet hot loop, so
   a disabled tracer costs a handful of predicate calls per block —
   within the noise of ``benchmarks/perf_floor.json``.
2. **Deterministic.**  All timestamps are simulated seconds; span ids are
   assigned in begin order; nothing reads wall clocks or iterates sets.
   Two runs of the same seed produce byte-identical exports, and the
   packet-train fast path records the same spans (same times, same args)
   as the legacy per-packet loop.
3. **Out-of-order friendly.**  The analytic packet train knows span end
   times before the simulation clock reaches them, so :meth:`Tracer.end`
   accepts an explicit timestamp; exporters canonicalize order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.trace import Journal

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One named interval on an actor's track."""

    id: int
    name: str
    actor: str
    track: str
    start: float
    end: Optional[float] = None
    parent: int = 0  #: enclosing span id (0 = top-level)
    args: dict = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Records spans over simulated time and refers to attached journals.

    ``begin`` returns a span id (``0`` when disabled — a valid no-op
    handle for ``end``).  ``end`` on an already-closed span is a no-op,
    which lets teardown paths close spans defensively.
    """

    __slots__ = ("_enabled", "_spans", "_journals", "_next_id")

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._spans: dict[int, Span] = {}
        self._journals: list[tuple[str, "Journal"]] = []
        self._next_id = 1

    # -- control -----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- recording ---------------------------------------------------------
    def begin(
        self,
        name: str,
        actor: str,
        track: str,
        t: float,
        parent: int = 0,
        **args: object,
    ) -> int:
        """Open a span at simulated time ``t``; returns its id (0 if off)."""
        if not self._enabled:
            return 0
        sid = self._next_id
        self._next_id += 1
        self._spans[sid] = Span(
            id=sid, name=name, actor=actor, track=track,
            start=t, parent=parent, args=dict(args),
        )
        return sid

    def end(self, sid: int, t: float, **args: object) -> None:
        """Close span ``sid`` at ``t``; no-op for 0 / unknown / closed ids."""
        if not self._enabled or sid == 0:
            return
        span = self._spans.get(sid)
        if span is None or span.end is not None:
            return
        span.end = t
        if args:
            span.args.update(args)

    # -- journal ----------------------------------------------------------
    def attach_journal(self, journal: "Journal", actor: str = "journal") -> None:
        """Export every event of ``journal`` as an instant on ``actor``.

        The protocol journal (pipeline_open, block_stored, FNFA flags,
        recoveries, kills…) is the event backbone the paper's timelines
        hang off.  The tracer keeps a reference, not a copy: exporters
        read the journal's events in place, each as an instant named
        after its kind on a track of that kind.
        """
        self._journals.append((actor, journal))

    # -- reading -----------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """All spans in begin order."""
        return tuple(self._spans.values())

    def journals(self) -> tuple[tuple[str, "Journal"], ...]:
        """Attached ``(actor, journal)`` pairs in attach order."""
        return tuple(self._journals)

    def open_spans(self) -> tuple[Span, ...]:
        return tuple(s for s in self._spans.values() if s.end is None)

    def __len__(self) -> int:
        return len(self._spans)

