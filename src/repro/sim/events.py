"""Core event types for the discrete-event kernel.

The kernel follows the simpy model: an :class:`Event` is a one-shot
container for a value (or an exception) with a list of callbacks that run
when the event is *processed* by the environment.  Processes (generator
coroutines, see :mod:`repro.sim.process`) ``yield`` events to suspend until
they fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .environment import Environment

__all__ = ["PENDING", "Event", "Timeout", "Condition", "AllOf", "AnyOf", "race"]


class _Pending:
    """Sentinel marking an event whose value has not been set yet."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PENDING>"


PENDING = _Pending()


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* → *triggered* (value/exception set, scheduled) →
    *processed* (callbacks executed).  ``succeed``/``fail`` may be called at
    most once.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_defused",
        "_cancelled",
    )

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callbacks run (in order) when the event is processed.  Set to
        #: ``None`` once processed; appending afterwards is an error.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise AttributeError("event is not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value, or the exception instance if it failed."""
        if self._value is PENDING:
            raise AttributeError("event is not yet triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failure has been claimed by a handler.

        A failed event that is never defused crashes the simulation when
        processed — silent failures are bugs in a simulator.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failure as handled so it will not crash the simulation."""
        self._defused = True

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has withdrawn the event."""
        return self._cancelled

    def cancel(self) -> None:
        """Withdraw a triggered-but-unprocessed event from the schedule.

        The scheduler leaves the heap entry in place as a *tombstone* and
        discards it when popped — without advancing the clock, without
        counting it as processed, and without running callbacks.  The
        environment compacts the heap once tombstones dominate it, so
        abandoned timers (a speed reporter's next beat after its upload
        finished, losers of a :func:`race`, stale recovery timeouts, a
        liveness tick re-planned away) stop churning the heap.

        Cancelling is the *caller's* assertion that no remaining subscriber
        matters.  Only successful, already-triggered events may be
        cancelled: an untriggered event may still be succeeded later (its
        schedule entry would silently vanish) and a failed event must crash
        the run if unhandled.  Cancelling a processed or already-cancelled
        event is a no-op, so ``race`` winners can cancel losers blindly.
        """
        if self.callbacks is None or self._cancelled:
            return
        if self._value is PENDING:
            raise RuntimeError(f"cannot cancel untriggered {self!r}")
        if not self._ok:
            raise RuntimeError(f"cannot cancel failed {self!r}")
        self._cancelled = True
        self.callbacks = None
        self.env._note_cancelled()

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Set the event's value and schedule its callbacks for *now*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Set the event's value and schedule its callbacks for ``when``.

        Like :meth:`succeed`, but at an absolute future time: a process
        already waiting on the event resumes then, so a sleeper can be
        woken at a chosen instant for the cost of that one event.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self.env.schedule_at(self, when)
        self._ok = True
        self._value = value
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Set an exception outcome and schedule callbacks for *now*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _succeed_sync(self, value: Any = None) -> "Event":
        """Succeed *and process* the event without entering the queue.

        Only valid while nothing has subscribed (``callbacks`` empty):
        there is no waiter to resume, so the heap round-trip would only
        delay the creating process's continuation to later in the same
        timestamp.  Used by resources for immediately-satisfiable
        requests — a ``yield`` on the returned event resumes synchronously
        (see ``Process._resume``).
        """
        assert not self.callbacks, "cannot sync-succeed a subscribed event"
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.callbacks = None
        return self

    def trigger(self, event: "Event") -> None:
        """Copy another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Condition(Event):
    """Waits for a combination of events (used via :class:`AllOf`/:class:`AnyOf`).

    The condition's value is a dict mapping each *triggered* constituent
    event to its value, in trigger order.  If any constituent fails, the
    condition fails with that exception (and defuses the others).
    """

    __slots__ = ("_evaluate", "_events", "_count", "_fired")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list["Event"], int], bool],
        events: Iterable["Event"],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0
        self._fired: list["Event"] = []

        for event in self._events:
            if event.env is not env:
                raise ValueError("cannot mix events from different environments")

        # Immediately check already-processed events, then subscribe.
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

        if not self._events and not self.triggered:
            self.succeed({})

    def _check(self, event: "Event") -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()  # condition already resolved; claim failure
            return
        self._count += 1
        if not event._ok:
            event.defuse()
            self.fail(event._value)
        else:
            self._fired.append(event)
            if not self._evaluate(self._events, self._count):
                return
            self.succeed(self._collect_values())
        # Resolved.  Constituents still pending keep this condition in
        # their callbacks (to defuse a late failure); dropping the lists
        # keeps it from holding them in a reference cycle.
        self._events = self._fired = None

    def _collect_values(self) -> dict["Event", Any]:
        return {e: e._value for e in self._fired}

    @staticmethod
    def all_events(events: list["Event"], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list["Event"], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Fires when *all* the given events have fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Fires when *any one* of the given events has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable["Event"]):
        super().__init__(env, Condition.any_events, events)


class _Race(Event):
    """Minimal first-of-N event: no constituent list, no value dict.

    A race is processed *in place*: the first constituent to be processed
    triggers it and runs its callbacks inside its own callback list, so
    the waiter wakes in the winner's heap event and the race takes no
    heap entry of its own.  A failed winner fails the race; a failure no
    callback defused crashes the run from inside the winner's processing.
    """

    __slots__ = ()

    def _on(self, event: "Event") -> None:
        if self._value is not PENDING:
            if not event._ok:
                event.defuse()
            return
        if event._ok:
            self._value = event
        else:
            event.defuse()
            self._ok = False
            self._value = event._value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if not self._ok and not self._defused:
            exc = self._value
            raise exc if isinstance(exc, BaseException) else RuntimeError(exc)


def race(env: "Environment", *events: "Event") -> "Event":
    """First-of-N wait without a :class:`Condition` allocation.

    The write clients' per-packet send races each step against the
    pipeline's error event; at a million packets per experiment the
    Condition's event list, fired list and value dict would dominate
    allocation churn for a value nobody reads.
    ``race`` fires with the first-fired *event* as its value, propagates a
    constituent failure the same way Condition does, and — when some event
    has already been processed — returns that event directly, allocating
    nothing and subscribing to nothing.  Unlike a Condition it wakes its
    waiter in place, inside the winner's processing (see :class:`_Race`).
    """
    for event in events:
        if event.processed:
            return event
    waiter = _Race(env)
    for event in events:
        assert event.callbacks is not None
        event.callbacks.append(waiter._on)
    return waiter
