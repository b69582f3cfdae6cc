"""A compact discrete-event simulation kernel (simpy-style).

Built from scratch for this reproduction so the whole system is
self-contained: generator-coroutine processes scheduled over a binary-heap
event queue, with counted resources and FIFO stores as the concurrency
primitives.  See :class:`Environment` for the entry point.
"""

from .environment import Environment, total_events_processed
from .errors import EmptySchedule, Interrupt, SimulationError, SnapshotError
from .events import AllOf, AnyOf, Condition, Event, Timeout, race
from .process import Process, ProcessGenerator
from .resources import (
    Channel,
    Release,
    Request,
    Reservation,
    Resource,
    Store,
    StoreGet,
    StorePut,
)

__all__ = [
    "Environment",
    "total_events_processed",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "race",
    "Process",
    "ProcessGenerator",
    "Interrupt",
    "SimulationError",
    "EmptySchedule",
    "SnapshotError",
    "Channel",
    "Reservation",
    "Resource",
    "Request",
    "Release",
    "Store",
    "StorePut",
    "StoreGet",
]
