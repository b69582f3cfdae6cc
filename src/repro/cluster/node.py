"""A physical (virtual) machine: NIC + disk + CPU + rack placement.

Nodes are pure substrate — they know nothing about HDFS.  The HDFS layer
instantiates namenode/datanode/client *services* on top of nodes.
"""

from __future__ import annotations

from ..sim import Environment
from .disk import Disk
from .instance import InstanceType
from ..net.nic import NIC

__all__ = ["Node"]


class Node:
    """One machine in the cluster."""

    def __init__(
        self,
        env: Environment,
        name: str,
        instance: InstanceType,
        rack: str,
    ):
        if not name:
            raise ValueError("node name must be non-empty")
        self.env = env
        self.name = name
        self.instance = instance
        self.rack = rack
        self.nic = NIC(env, instance.network_rate, name=f"{name}.nic")
        self.disk = Disk(env, instance.disk_rate, name=f"{name}.disk")
        #: Set False by the fault injector; services must check it.
        self.alive = True

    def fail(self) -> None:
        """Mark the machine dead (fault injection)."""
        self.alive = False

    def recover(self) -> None:
        """Bring the machine back (fault injection)."""
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "DOWN"
        return f"<Node {self.name} ({self.instance.name}, rack={self.rack}, {status})>"
