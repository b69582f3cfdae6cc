"""Rack-aware network topology.

HDFS models the network as a tree (datacenter → racks → nodes) and
measures "distance" as the number of tree edges between nodes: 0 for the
same node, 2 within a rack, 4 across racks.  The default placement policy
and SMARTH's Algorithm 1 both ask only which rack a node is on
(``randomRemoteRackNode``, ``nodeOnSameRack``), so the tree is kept as a
host → rack map and distance follows from it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Topology", "DISTANCE_SAME_NODE", "DISTANCE_SAME_RACK", "DISTANCE_OFF_RACK"]

DISTANCE_SAME_NODE = 0
DISTANCE_SAME_RACK = 2
DISTANCE_OFF_RACK = 4


class Topology:
    """A two-level tree: root → racks → hosts."""

    def __init__(self) -> None:
        self._rack_of: dict[str, str] = {}

    # -- construction -----------------------------------------------------
    def add_host(self, host: str, rack: str) -> None:
        """Place ``host`` in ``rack``."""
        if host in self._rack_of:
            raise ValueError(f"host {host!r} already registered")
        if not rack:
            raise ValueError("rack name must be non-empty")
        self._rack_of[host] = rack

    # -- queries ----------------------------------------------------------
    @property
    def hosts(self) -> tuple[str, ...]:
        """All host names, sorted."""
        return tuple(sorted(self._rack_of))

    def rack_of(self, host: str) -> str:
        """The rack containing ``host``."""
        try:
            return self._rack_of[host]
        except KeyError:
            raise KeyError(f"unknown host {host!r}") from None

    @property
    def rack_map(self) -> dict[str, str]:
        """The live host→rack mapping, for read-only bulk lookups.

        Placement scans hundreds of hosts per replica choice; indexing
        this dict directly skips a method call per host.  Callers must
        not mutate it — membership changes go through :meth:`add_host`.
        """
        return self._rack_of

    def distance(self, a: str, b: str) -> int:
        """HDFS tree distance (0 same node, 2 same rack, 4 off rack).

        Raises :class:`KeyError` if either host is unknown.
        """
        rack_a = self.rack_of(a)
        rack_b = self.rack_of(b)
        if a == b:
            return DISTANCE_SAME_NODE
        return DISTANCE_SAME_RACK if rack_a == rack_b else DISTANCE_OFF_RACK

    @classmethod
    def from_rack_map(cls, rack_map: dict[str, Iterable[str]]) -> "Topology":
        """Build from ``{rack_name: [host, ...]}``."""
        topo = cls()
        for rack, hosts in rack_map.items():
            for host in hosts:
                topo.add_host(host, rack)
        return topo

    def __contains__(self, host: str) -> bool:
        return host in self._rack_of

    def __len__(self) -> int:
        return len(self._rack_of)
