"""The simulation environment: clock, scheduler, and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Iterable, Optional

from .errors import EmptySchedule, StopSimulation
from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Environment", "NORMAL", "URGENT", "total_events_processed"]

#: Process-wide count of events processed across every Environment — the
#: kernel-throughput counter the benchmark harness turns into events/sec.
_TOTAL_EVENTS = 0


def total_events_processed() -> int:
    """Events processed by all environments in this process so far."""
    return _TOTAL_EVENTS

#: Priority for interrupt-style events that must run before normal ones
#: scheduled at the same instant.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Environment:
    """Owns the simulated clock and the pending-event heap.

    All model components (NICs, disks, namenode, clients, …) share one
    environment.  Time is a float in **seconds** and only advances inside
    :meth:`run` / :meth:`step`; nothing in the simulator reads wall-clock
    time, so runs are fully deterministic given the model's RNG seeds.
    """

    #: Tombstone count below which :meth:`_compact` never runs — keeps tiny
    #: schedules from paying rebuild costs for a handful of cancellations.
    COMPACT_MIN_TOMBSTONES = 64

    #: Default for :attr:`lazy_cancellation` on new environments; the
    #: equivalence suite flips this class-wide to run whole experiments on
    #: the pre-tombstone scheduler.
    LAZY_CANCELLATION = True

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Process | None = None
        #: Heap entries whose event has been cancelled but not yet popped.
        self._tombstones = 0
        #: Events processed by this environment (kernel-throughput metric).
        self.events_processed = 0
        #: Cancelled entries discarded off the heap without dispatching.
        self.tombstones_skipped = 0
        #: Times :meth:`_compact` rebuilt the heap.
        self.compactions_run = 0
        #: Largest number of entries (live + tombstoned) ever in the heap.
        self.heap_high_water = 0
        #: When False, :meth:`Event.cancel` is a no-op and abandoned timers
        #: stay in the heap until they fire as stale events — the
        #: pre-tombstone scheduler, kept switchable so equivalence tests
        #: and the scale benchmark can prove both modes produce identical
        #: simulated timelines.
        self.lazy_cancellation: bool = self.LAZY_CANCELLATION

    # -- introspection -----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next *live* scheduled event, or ``inf`` if none remain."""
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heapq.heappop(queue)
            self._tombstones -= 1
            self.tombstones_skipped += 1
        return queue[0][0] if queue else float("inf")

    def health(self) -> dict:
        """Event-loop health counters, for `repro.obs` gauges and benchmarks."""
        return {
            "events_dispatched": self.events_processed,
            "tombstones_skipped": self.tombstones_skipped,
            "compactions_run": self.compactions_run,
            "heap_high_water": self.heap_high_water,
            "pending": len(self),
        }

    # -- snapshot protocol ---------------------------------------------------
    def clock_state(self) -> dict:
        """Plain-data clock/counter state for checkpointing.

        Only meaningful at a *quiescent* point (empty schedule): pending
        heap entries hold live generator frames and cannot be serialized.
        The event-id counter is captured without consuming a value so the
        snapshot itself never perturbs scheduling order.
        """
        # itertools.count reduces to (count, (next_value,)).
        next_eid = self._eid.__reduce__()[1][0]
        return {
            "now": self._now,
            "next_eid": next_eid,
            "events_processed": self.events_processed,
            "tombstones_skipped": self.tombstones_skipped,
            "compactions_run": self.compactions_run,
            "heap_high_water": self.heap_high_water,
        }

    def restore_clock(self, state: dict) -> None:
        """Restore :meth:`clock_state` onto a fresh, empty environment.

        Refuses to run with events pending: any entry scheduled before the
        restore would carry a pre-restore event id and break the global
        ``(time, priority, eid)`` dispatch order the checkpoint proof
        relies on.
        """
        from .errors import SnapshotError

        if len(self) != 0:
            raise SnapshotError(
                f"restore_clock requires an empty schedule, {len(self)} "
                "events pending"
            )
        self._now = float(state["now"])
        self._eid = count(state["next_eid"])
        self.events_processed = state["events_processed"]
        self.tombstones_skipped = state["tombstones_skipped"]
        self.compactions_run = state["compactions_run"]
        self.heap_high_water = state["heap_high_water"]

    def __len__(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue) - self._tombstones

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Event:
        """Create an event that fires at the *absolute* time ``when``.

        Unlike ``timeout(when - now)``, the event's heap timestamp is
        exactly ``when`` — no ``now + (when - now)`` float round-trip.
        The analytic :class:`~repro.sim.resources.Channel` path relies on
        this to complete transfers at bit-identical times to the FIFO
        :class:`~repro.sim.resources.Resource` model it replaced.
        """
        if when < self._now:
            raise ValueError(
                f"timeout_at({when}) lies in the past (now={self._now})"
            )
        event = Event(self)
        event._ok = True
        event._value = value
        self.schedule_at(event, when)
        return event

    def process(
        self, generator: ProcessGenerator, name: str | None = None
    ) -> Process:
        """Start a new process from a generator and return its event."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any event in ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` for processing at ``now + delay``.

        Called by :meth:`Event.succeed`/:meth:`Event.fail`; model code
        normally never calls this directly.
        """
        queue = self._queue
        heapq.heappush(
            queue, (self._now + delay, priority, next(self._eid), event)
        )
        if len(queue) > self.heap_high_water:
            self.heap_high_water = len(queue)

    def schedule_at(
        self, event: Event, when: float, priority: int = NORMAL
    ) -> None:
        """Queue ``event`` for processing at the absolute time ``when``.

        ``when`` must not lie in the past: a heap entry behind the clock
        would dispatch immediately but report a non-monotonic timestamp,
        silently corrupting any timeline built from it.
        """
        if when < self._now:
            raise ValueError(
                f"schedule_at({when}) lies in the past (now={self._now})"
            )
        queue = self._queue
        heapq.heappush(queue, (when, priority, next(self._eid), event))
        if len(queue) > self.heap_high_water:
            self.heap_high_water = len(queue)

    def _note_cancelled(self) -> None:
        """Record a new tombstone; compact the heap when they dominate it."""
        self._tombstones += 1
        if (
            self._tombstones >= self.COMPACT_MIN_TOMBSTONES
            and self._tombstones * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned entries and re-heapify.

        Heap *order* is irrelevant to pop order here: entries are totally
        ordered tuples with unique ids, so rebuilding the heap cannot
        change the sequence of live events — determinism is preserved.
        """
        self._queue = [entry for entry in self._queue if not entry[3]._cancelled]
        heapq.heapify(self._queue)
        self._tombstones = 0
        self.compactions_run += 1

    def step(self) -> None:
        """Process exactly one event, advancing the clock to its time.

        Tombstoned (cancelled) entries are discarded without advancing the
        clock and without counting toward ``events_processed`` — a
        cancelled timer must leave no trace in either the metrics or the
        simulated timeline.
        """
        queue = self._queue
        while True:
            try:
                when, _, _, event = heapq.heappop(queue)
            except IndexError:
                raise EmptySchedule("no scheduled events remain") from None
            if event._cancelled:
                self._tombstones -= 1
                self.tombstones_skipped += 1
                continue
            break
        self._now = when

        self.events_processed += 1
        global _TOTAL_EVENTS
        _TOTAL_EVENTS += 1

        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None, "event processed twice"
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of silently
            # corrupting the run.
            exc = event._value
            raise exc if isinstance(exc, BaseException) else RuntimeError(exc)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until ``until`` (a time or an event) or until no events remain.

        * ``until is None`` — run the schedule dry and return ``None``.
        * ``until`` is a number — advance the clock to exactly that time.
        * ``until`` is an :class:`Event` — run until it fires; return its
          value (re-raising its exception if it failed).
        """
        stop: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until ({at}) must not lie in the past (now={self._now})"
                    )
                stop = Timeout(self, at - self._now)

            if stop.callbacks is None:  # already processed
                if isinstance(until, Event):
                    if not stop._ok:
                        raise stop._value
                    return stop._value
                return None
            stop.callbacks.append(self._stop_callback)

        try:
            while True:
                self.step()
        except StopSimulation as signal:
            if isinstance(until, Event):
                assert stop is not None
                if not stop._ok:
                    stop.defuse()
                    raise stop._value
                return signal.value
            # Pin the clock to the requested stop time even if the last
            # event processed was earlier.
            if not isinstance(until, Event) and until is not None:
                self._now = float(until)
            return None
        except EmptySchedule:
            if stop is not None and not stop.triggered:
                raise RuntimeError(
                    "schedule ran dry before the 'until' event fired"
                ) from None
            return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event._value)
