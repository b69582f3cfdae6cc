"""Shared resources for processes: channels, counted resources, FIFO stores.

Three primitives cover everything the HDFS/SMARTH models need:

* :class:`Channel` — a serializing FIFO link modelled *analytically*: a
  ``busy_until`` timestamp instead of a grant/hold/release event chain.
  Each transfer's completion time is computed in O(1), so occupying a NIC
  or disk channel costs one heap event instead of a spawned process with a
  request/release pair.  Used for NIC egress/ingress and disk channels.
* :class:`Resource` — ``capacity`` concurrent holders, FIFO queuing.  Used
  for namenode RPC handler slots and SMARTH pipeline slots.
* :class:`Store` — an optionally-bounded FIFO buffer of items.  Used for
  per-pipeline ACK queues and datanode inboxes, forwarding queues and
  buffer tokens (where the bound models the 64 MB first-datanode
  buffer).  The client's data queue is no store: it is the production
  recurrence of :mod:`repro.hdfs.client.output_stream`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Generic, Optional, TypeVar

from .environment import Environment
from .events import Event

__all__ = [
    "Channel",
    "Reservation",
    "Request",
    "Release",
    "Resource",
    "Store",
    "StorePut",
    "StoreGet",
]

T = TypeVar("T")


class Reservation(Event):
    """One committed occupancy of a :class:`Channel`.

    Fires (with itself as value) when the last byte leaves the channel.
    ``start``/``end`` are the occupancy interval quoted at creation time;
    like every channel quote they never move afterwards.
    """

    __slots__ = ("channel", "size", "rate", "start", "end")

    def __init__(
        self,
        channel: "Channel",
        size: float,
        rate: float,
        start: float,
        end: float,
    ):
        super().__init__(channel.env)
        self.channel = channel
        self.size = size
        self.rate = rate
        self.start = start
        self.end = end


class Channel:
    """A serializing FIFO link with analytic occupancy accounting.

    Equivalent to a capacity-1 FIFO :class:`Resource` held for
    ``size / rate`` per transfer, but closed-form: a transfer arriving at
    ``now`` starts at ``max(now, busy_until)`` and completes ``size/rate``
    later — exactly the grant time the FIFO queue would have produced,
    computed without enacting the queue event-by-event.

    Two entry points:

    * :meth:`quote` — commit an occupancy and return its completion time
      as a float.  Nothing is scheduled; the caller owns the wait.  This
      is the transport fast path (one timeout per transfer).
    * :meth:`reserve` — commit an occupancy and return a
      :class:`Reservation` event firing at completion.

    Both commit immutable quotes: a rate change (a ``tc`` rule added or
    removed) only reaches transfers quoted after it.
    """

    __slots__ = ("env", "name", "_busy_until", "_guard")

    def __init__(self, env: Environment, name: str = "channel"):
        self.env = env
        self.name = name
        self._busy_until = 0.0
        #: Optional pre-quote hook.  A packet train holds occupancy of a
        #: channel analytically (no committed ``busy_until``); the guard
        #: lets it materialise that occupancy the instant a *foreign*
        #: caller quotes the same channel, so FIFO ordering stays exact.
        self._guard: Optional[Callable[[], None]] = None

    @property
    def busy_until(self) -> float:
        """Time at which the channel next falls idle (may be the past)."""
        return self._busy_until

    @property
    def busy(self) -> bool:
        return self._busy_until > self.env.now

    def quote(self, size: float, rate: float) -> float:
        """Commit ``size`` bytes at ``rate`` B/s; return the completion time.

        O(1): ``completion = max(now, busy_until) + size / rate``.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if self._guard is not None:
            self._guard()
        now = self.env.now
        start = self._busy_until if self._busy_until > now else now
        end = start + size / rate
        self._busy_until = end
        return end

    def reserve(self, size: float, rate: float) -> Reservation:
        """Commit an occupancy and return an event firing at completion.

        The :class:`Reservation` is deliberately not a bare timer:
        ``Process._resume`` tombstones those when their last waiter is
        interrupted, and a disk write may have a second waiter (a
        receiver's ACK relay and its local finalizer both await it).
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if self._guard is not None:
            self._guard()
        now = self.env.now
        start = self._busy_until if self._busy_until > now else now
        end = start + size / rate
        self._busy_until = end
        # Timeout-style: pre-succeeded, one heap entry.
        res = Reservation(self, size, rate, start, end)
        res._ok = True
        res._value = res
        self.env.schedule_at(res, end)
        return res

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name} busy_until={self._busy_until:.6f}>"


class Request(Event):
    """Event granted when the resource admits this request.

    Usable as a context manager so that ``with resource.request() as req:``
    always releases, even on interrupt.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._admit(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release the slot (or withdraw from the wait queue)."""
        self.resource.release(self)


class Release(Event):
    """Immediately-succeeding event returned by :meth:`Resource.release`."""

    __slots__ = ()


class Resource:
    """A counted resource with FIFO admission.

    ``capacity`` requests may hold the resource simultaneously; further
    requests wait in arrival order.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._users: list[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of requests currently holding the resource."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for admission."""
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when granted."""
        return Request(self)

    def release(self, request: Request) -> Release:
        """Give back a slot (or withdraw a waiting request)."""
        if request in self._users:
            self._users.remove(request)
            self._grant_next()
        else:
            try:
                self._waiting.remove(request)
            except ValueError:
                pass  # releasing twice is a no-op, mirroring simpy
        return Release(self.env)._succeed_sync()

    # ------------------------------------------------------------------
    def _admit(self, request: Request) -> None:
        if len(self._users) < self._capacity:
            self._users.append(request)
            # Immediate grant: nobody has subscribed yet, so complete the
            # event synchronously instead of round-tripping the heap.
            request._succeed_sync()
        else:
            self._waiting.append(request)

    def _grant_next(self) -> None:
        while self._waiting and len(self._users) < self._capacity:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed()


class StorePut(Event, Generic[T]):
    """Event fired when an item has been accepted into the store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store[T]", item: T):
        super().__init__(store.env)
        self.item = item
        store._handle_put(self)


class StoreGet(Event, Generic[T]):
    """Event fired (with the item as value) when an item is available."""

    __slots__ = ()

    def __init__(self, store: "Store[T]"):
        super().__init__(store.env)
        store._handle_get(self)


class Store(Generic[T]):
    """FIFO buffer of items with optional capacity bound.

    ``put`` blocks (i.e. its event stays pending) while the store is full;
    ``get`` blocks while it is empty.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self._items: Deque[T] = deque()
        self._putters: Deque[StorePut[T]] = deque()
        self._getters: Deque[StoreGet[T]] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def items(self) -> tuple[T, ...]:
        """Snapshot of buffered items (read-only view for assertions)."""
        return tuple(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: T) -> StorePut[T]:
        """Offer ``item``; the event fires once the store has room."""
        return StorePut(self, item)

    def get(self) -> StoreGet[T]:
        """Take the oldest item."""
        return StoreGet(self)

    # ------------------------------------------------------------------
    def _handle_put(self, event: StorePut[T]) -> None:
        # Immediate completions (the overwhelmingly common case in the
        # packet hot loop) are processed synchronously: the event has no
        # subscribers yet, so scheduling it would only push the caller's
        # continuation through the heap for nothing.
        if len(self._items) < self._capacity:
            self._items.append(event.item)
            event._succeed_sync()
            self._wake_getters()
        else:
            self._putters.append(event)

    def _handle_get(self, event: StoreGet[T]) -> None:
        self._match(event, sync=True)
        if event.triggered:
            self._wake_putters()
        else:
            self._getters.append(event)

    def _match(self, event: StoreGet[T], sync: bool = False) -> None:
        """Remove and deliver the oldest item, if there is one.

        ``sync`` is True only for a brand-new getter (no subscribers);
        woken getters have waiters and must go through the queue.
        """
        if self._items:
            item = self._items.popleft()
            event._succeed_sync(item) if sync else event.succeed(item)

    def _wake_getters(self) -> None:
        while self._getters and self._items:
            self._match(self._getters.popleft())

    def _wake_putters(self) -> None:
        while self._putters and len(self._items) < self._capacity:
            putter = self._putters.popleft()
            self._items.append(putter.item)
            putter.succeed()
            self._wake_getters()
