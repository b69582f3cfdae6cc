"""Replica placement policies.

The default HDFS policy (§V-B.1): first replica on the client itself if
the client is a datanode, otherwise a random not-too-busy node; second
replica on a different rack from the first; third on the second's rack but
a different node; further replicas anywhere.  This "offers good
reliability … at the cost of performance" — the property SMARTH's
Algorithm 1 (in :mod:`repro.smarth.global_opt`) trades differently.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Iterable, Mapping, Sequence

from ..net.topology import Topology
from .datanode_manager import DatanodeManager
from .protocol import NoDatanodesAvailable

__all__ = ["PlacementPolicy", "DefaultPlacementPolicy", "place_replicas"]


class PlacementPolicy(ABC):
    """Strategy interface used by the namenode's addBlock()."""

    @abstractmethod
    def choose_targets(
        self,
        client: str,
        replication: int,
        excluded: Iterable[str] = (),
    ) -> tuple[str, ...]:
        """Pick ``replication`` distinct live datanodes for a new block."""

    @staticmethod
    def _pick(rng: random.Random, candidates: Sequence[str]) -> str:
        return candidates[rng.randrange(len(candidates))]


def place_replicas(
    rng: random.Random,
    rack_map: Mapping[str, str],
    available: Sequence[str],
    first: str,
    replication: int,
) -> tuple[str, ...]:
    """Extend a pipeline headed by ``first`` to ``replication`` targets.

    The rack rule both protocols share (Algorithm 1 lines 12-16 keep the
    default policy's layout): the second replica goes off the first's
    rack, the third on the second's rack, any further ones anywhere, each
    falling back to any remaining node of ``available``.  One ``rng``
    draw per replica, in replica order.
    """
    targets = [first]
    while len(targets) < replication:
        remaining = [d for d in available if d not in targets]
        if len(targets) == 1:
            rack = rack_map[first]
            preferred = [d for d in remaining if rack_map[d] != rack]
        elif len(targets) == 2:
            rack = rack_map[targets[1]]
            preferred = [d for d in remaining if rack_map[d] == rack]
        else:
            preferred = []
        targets.append(PlacementPolicy._pick(rng, preferred or remaining))
    return tuple(targets)


class DefaultPlacementPolicy(PlacementPolicy):
    """Hadoop 1.x rack-aware random placement."""

    def __init__(
        self,
        topology: Topology,
        datanodes: DatanodeManager,
        rng: random.Random,
    ):
        self.topology = topology
        self.datanodes = datanodes
        self.rng = rng

    def choose_targets(
        self,
        client: str,
        replication: int,
        excluded: Iterable[str] = (),
    ) -> tuple[str, ...]:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        excluded_set = set(excluded)
        live = self.datanodes.live_datanodes()
        available: Sequence[str]
        if excluded_set:
            available = [d for d in live if d not in excluded_set]
        else:
            available = live
        if not available:
            raise NoDatanodesAvailable("no live datanodes available")
        # Hadoop's chooseTarget degrades gracefully: place on as many
        # nodes as exist, even if fewer than the replication factor.
        replication = min(replication, len(available))

        # Replica 1: the client itself when it is a datanode, else random.
        if client in self.datanodes.live_set() and client not in excluded_set:
            first = client
        else:
            first = self._pick(self.rng, available)
        return place_replicas(
            self.rng, self.topology.rack_map, available, first, replication
        )
