"""Local-disk model.

A datanode writes each received packet to its ephemeral store (``T_w`` in
the paper's cost model, §III-D).  The disk is a serializing channel at a
fixed sequential-write rate; concurrent writers queue, so a node receiving
blocks from several pipelines (not allowed for one client in SMARTH, but
possible across clients) shares disk bandwidth realistically.
"""

from __future__ import annotations

from ..sim import Channel, Environment, ProcessGenerator

__all__ = ["Disk"]


class Disk:
    """A serializing write channel with a fixed rate.

    Occupancy is quoted analytically through :class:`~repro.sim.Channel`
    (the same FIFO fast path as NIC channels): a write admitted behind
    ``busy_until`` starts there and holds ``size / rate``, all computed in
    O(1) with a single completion timeout.
    """

    def __init__(self, env: Environment, rate: float, name: str = "disk"):
        if rate <= 0:
            raise ValueError(f"disk rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        self._channel = Channel(env, name=name)
        self.bytes_written = 0
        self.bytes_read = 0

    def write(self, size: int) -> ProcessGenerator:
        """Write ``size`` bytes; takes ``size / rate`` once admitted."""
        if size < 0:
            raise ValueError(f"write size must be non-negative, got {size}")
        end = self._channel.quote(size, self.rate)
        self.bytes_written += size
        yield self.env.timeout_at(end)

    def write_event(self, size: int):
        """Commit a write and return the event firing at its completion.

        The datanode receive loop issues one of these per packet; an event
        costs one heap entry where a spawned ``write`` process costs three
        (init, timeout, termination) plus the generator.
        """
        if size < 0:
            raise ValueError(f"write size must be non-negative, got {size}")
        res = self._channel.reserve(size, self.rate)
        self.bytes_written += size
        return res

    def read(self, size: int) -> ProcessGenerator:
        """Read ``size`` bytes; shares the sequential channel with writes."""
        if size < 0:
            raise ValueError(f"read size must be non-negative, got {size}")
        end = self._channel.quote(size, self.rate)
        self.bytes_read += size
        yield self.env.timeout_at(end)

    def read_event(self, size: int):
        """Commit a read and return the event firing at its completion.

        The read serve loop issues one of these per chunk; like
        :meth:`write_event` it costs one heap entry where a spawned
        ``read`` process costs three plus the generator.
        """
        if size < 0:
            raise ValueError(f"read size must be non-negative, got {size}")
        res = self._channel.reserve(size, self.rate)
        self.bytes_read += size
        return res

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.name} rate={self.rate:.0f} B/s>"
