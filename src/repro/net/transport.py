"""The network fabric: data transfers and control messages between nodes.

:class:`Network` bundles the topology, the throttle table and flow
statistics, and provides the two primitives every protocol in this
reproduction is built from:

* :meth:`Network.transfer` — move ``size`` bytes from one node to another.
  The transfer occupies the sender's egress channel and the receiver's
  ingress channel for ``size / effective_rate`` (store-and-forward), then
  arrives after the link propagation latency.  Effective rate is the min
  of NIC rates and throttle rules — the ``tc`` model.
* :meth:`Network.send_control` — deliver a latency-only control message
  (ACK hop, FNFA, RPC).  Control packets are a few dozen bytes; per
  §III-D "the time of transferring ACKs and the time of sending data
  packets overlaps", so they do not contend for NIC bandwidth.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..config import NetworkConfig
from ..sim import Environment, ProcessGenerator
from .stats import FlowSample, FlowStats
from .throttle import ThrottleTable
from .topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

__all__ = ["Network"]


class Network:
    """The shared fabric connecting every node in a cluster."""

    def __init__(
        self,
        env: Environment,
        topology: Topology,
        config: NetworkConfig | None = None,
    ):
        self.env = env
        self.topology = topology
        self.throttles = ThrottleTable()
        self.config = config if config is not None else NetworkConfig()
        self.stats = FlowStats()

    def effective_rate(self, src: "Node", dst: "Node") -> float:
        """Current shaped rate between two nodes, bytes/second."""
        return self.throttles.effective_rate(src, dst)

    def transfer(self, src: "Node", dst: "Node", size: int) -> ProcessGenerator:
        """Move ``size`` bytes from ``src`` to ``dst`` (a process generator).

        Completes when the last byte has *arrived* at ``dst`` and returns
        the flow's :class:`FlowSample`; :attr:`stats` records the flow
        and keeps the sample only with ``keep_samples`` (only the
        transport tests read either one).

        It is :meth:`transfer_begin` plus one wait: both NIC channels are
        FIFO, so the occupancy is quoted analytically (``max(now,
        busy_until) + size/rate`` per channel) and the whole transfer is a
        single absolute-time timeout — no spawned egress/ingress
        processes, no AllOf barrier, no request/release pairs.  The quotes
        are immutable: a ``tc`` rule change mid-flight only reaches
        transfers that start after it.  An interrupted transfer keeps its
        quotes but never applies its counters or sample.
        """
        start = self.env.now
        done, finish = self.transfer_begin(src, dst, size)
        yield done
        sample = finish()
        if sample is None:
            sample = FlowSample(src.name, dst.name, size, start, self.env.now)
        return sample

    def transfer_begin(
        self, src: "Node", dst: "Node", size: int
    ) -> "tuple[object, Callable[[], FlowSample | None]]":
        """Quote a transfer without a generator: ``(done_event, finish)``.

        The caller yields ``done_event`` (an absolute-time timeout at
        arrival) and, if it did not abandon the transfer, calls
        ``finish()`` to apply the byte counters and record the flow
        (:meth:`FlowStats.add`: a :class:`FlowSample` is built, kept and
        returned only with ``keep_samples``).  The clients' per-packet
        send and the read loop call it directly; :meth:`transfer` wraps
        it in a generator.
        """
        if size < 0:
            raise ValueError(f"transfer size must be non-negative, got {size}")
        start = self.env.now
        if src is dst:
            # Loopback (e.g. a client co-located with a datanode): no NIC
            # occupancy, negligible latency.
            done_event = self.env.timeout(0)
            loopback = True
        else:
            rate = self.effective_rate(src, dst)
            e_end = src.nic.egress.quote(size, rate)
            i_end = dst.nic.ingress.quote(size, rate)
            done = (e_end if e_end > i_end else i_end) + self.config.link_latency
            done_event = self.env.timeout_at(done)
            loopback = False

        def finish() -> FlowSample | None:
            if not loopback:
                src.nic.bytes_sent += size
                dst.nic.bytes_received += size
            return self.stats.add(src.name, dst.name, size, start, self.env.now)

        return done_event, finish

    def control_delay(self, src: "Node", dst: "Node") -> float:
        """Latency of one control message: none on the same host."""
        return 0.0 if src is dst else self.config.control_latency

    def send_control(self, src: "Node", dst: "Node") -> ProcessGenerator:
        """Deliver a latency-only control message from ``src`` to ``dst``."""
        yield self.env.timeout(self.control_delay(src, dst))

    def connection_setup(self, hops: int = 1) -> ProcessGenerator:
        """Model pipeline construction cost: ``hops`` stream connects."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        yield self.env.timeout(self.config.connection_setup * hops)
