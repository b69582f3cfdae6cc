"""Generator-coroutine processes.

A :class:`Process` drives a Python generator: every value the generator
``yield``\\ s must be an :class:`~repro.sim.events.Event`; the process
suspends until that event fires and is resumed with the event's value (or
the event's exception is thrown into it).  The process itself *is* an
event — it fires with the generator's return value when the generator
finishes — so processes can wait for each other.  An exit nobody waits
for is processed in place and takes no heap entry; an exit that raises
always goes through the heap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .errors import Interrupt
from .events import PENDING, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .environment import Environment

__all__ = ["Process", "ProcessGenerator"]

#: The type every simulation process function must return.
ProcessGenerator = Generator[Event, Any, Any]


class _InterruptEvent(Event):
    """Internal urgent event used to deliver an interrupt to a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: object):
        super().__init__(process.env)
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        process.env.schedule(self, priority=0)  # urgent: before normal events

        # When the interrupt fires we resume the process directly, bypassing
        # whatever event it was waiting on.
        self.callbacks.append(process._resume)


class Process(Event):
    """A running simulation process wrapping a generator coroutine."""

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str | None = None
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(
                f"{generator!r} is not a generator — did you forget to call "
                "the process function?"
            )
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if it is
        #: scheduled to run or has terminated).
        self._target: Event | None = None

        # Kick the process off via an immediately-succeeding initialization
        # event so that it starts *inside* env.run(), not synchronously here.
        # Scheduled URGENT so that an interrupt issued at the same instant
        # (also URGENT, but created later) can never reach the generator
        # before it has started.
        init = Event(env)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        env.schedule(init, priority=0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Event | None:
        """The event this process is currently suspended on, if any."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`~repro.sim.errors.Interrupt` into the process.

        The process is resumed immediately (at the current simulation time,
        ahead of ordinary events).  Interrupting a finished process is an
        error; interrupting a process that is itself the caller is too.
        """
        if self.triggered:
            raise RuntimeError(f"{self} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        _InterruptEvent(self, cause)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        if self.triggered:
            # An interrupt raced with normal termination; nothing to do.
            if not event._ok:
                event.defuse()
            return

        # If we are being resumed by an interrupt while waiting on another
        # event, unsubscribe from that event so we are not resumed twice.
        if self._target is not None and self._target is not event:
            target = self._target
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
                # A plain timer we were the sole subscriber of is now pure
                # heap churn — tombstone it.  Restricted to Timeout and the
                # bare Events produced by ``timeout_at``: subclasses may
                # carry side effects (e.g. Request slots) or be re-yielded
                # by other processes, so they stay scheduled.
                if (
                    not target.callbacks
                    and type(target) in (Event, Timeout)
                    and target._ok
                    and target._value is not PENDING
                ):
                    target.cancel()
        self._target = None

        env._active_process = self
        try:
            while True:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event.defuse()
                    next_event = self._generator.throw(event._value)

                if not isinstance(next_event, Event):
                    raise RuntimeError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_event!r}"
                    )
                if next_event.callbacks is None:
                    # Already processed: resume with its value right away
                    # (synchronously, preserving zero-delay semantics).
                    event = next_event
                    continue
                next_event.callbacks.append(self._resume)
                self._target = next_event
                return
        except StopIteration as stop:
            # A finished process holds no generator, so a quiescent
            # environment is plain data (it pickles as a snapshot).
            self._generator = None
            self._ok = True
            self._value = stop.value
            if self.callbacks:
                env.schedule(self)
            else:
                # Nobody awaits the exit: process it in place, without a
                # heap entry.  A later ``yield`` on it resumes at once.
                self.callbacks = None
        except BaseException as error:
            # A raising exit always goes through the heap, so an
            # unhandled exception still crashes the run.
            self._generator = None
            self._ok = False
            self._value = error
            self._defused = False
            env.schedule(self)
        finally:
            env._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
