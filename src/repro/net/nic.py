"""Full-duplex network interface model.

A NIC has two independent serializing channels — egress and ingress — so a
node can send and receive at full rate simultaneously (EC2 instances are
full duplex), but concurrent *sends* from one node share its egress
capacity by queueing.  That queueing is the physical mechanism behind the
paper's observation that a single synchronous pipeline "could not
optimally make use of network capacity": with one pipeline, the client's
egress channel sits idle while waiting for ACKs; SMARTH's multiple
pipelines keep it busy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..sim import Channel, Environment

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

__all__ = ["NIC", "aggregate_counters"]


class NIC:
    """A full-duplex network interface with a fixed line rate.

    Parameters
    ----------
    env:
        The simulation environment.
    rate:
        Line rate in bytes/second (e.g. ``mbps(216)`` for an EC2 small
        instance).
    name:
        Diagnostic label, usually the owning node's name.
    """

    def __init__(self, env: Environment, rate: float, name: str = "nic"):
        if rate <= 0:
            raise ValueError(f"NIC rate must be positive, got {rate}")
        self.env = env
        self.rate = float(rate)
        self.name = name
        #: Serializing transmit channel: one frame on the wire at a time.
        self.egress = Channel(env, name=f"{name}:tx")
        #: Serializing receive channel.
        self.ingress = Channel(env, name=f"{name}:rx")
        #: Lifetime byte counters (for throughput accounting).  The
        #: transport adds a transfer's bytes when it arrives; a packet or
        #: read train adds its block's bytes when it settles.
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def busy_until(self) -> float:
        """Time this NIC next falls fully idle (max over both channels)."""
        tx, rx = self.egress.busy_until, self.ingress.busy_until
        return tx if tx > rx else rx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NIC {self.name} rate={self.rate:.0f} B/s>"


def aggregate_counters(nodes: "Iterable[Node]") -> tuple[int, int]:
    """Sum ``(bytes_sent, bytes_received)`` over every node's NIC.

    Campaign benchmarks report aggregate bytes moved, read after the run
    (a train applies its bytes only when it settles).
    """
    sent = received = 0
    for node in nodes:
        sent += node.nic.bytes_sent
        received += node.nic.bytes_received
    return sent, received
