"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations

__all__ = [
    "SimulationError",
    "Interrupt",
    "StopSimulation",
    "EmptySchedule",
    "SnapshotError",
]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class Interrupt(Exception):
    """Raised *inside* a process when another process interrupts it.

    The interrupting party passes an arbitrary ``cause`` describing why the
    interrupt happened (e.g. a datanode failure notification).  The
    interrupted process may catch the exception and react — this is how
    pipeline fault handling is triggered in both the HDFS baseline and
    SMARTH.
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)

    @property
    def cause(self) -> object:
        """Whatever object the interrupter supplied as the reason."""
        return self.args[0]


class StopSimulation(Exception):
    """Internal signal used by :meth:`Environment.run` to stop at ``until``."""

    def __init__(self, value: object = None):
        super().__init__(value)

    @property
    def value(self) -> object:
        return self.args[0]


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class SnapshotError(SimulationError):
    """A checkpoint could not be taken or restored safely.

    Raised when a snapshot is attempted on a non-quiescent environment
    (events still pending — their generator frames cannot serialize), or
    when a snapshot file is unreadable, has an unknown format/version, or
    holds no service.
    """
