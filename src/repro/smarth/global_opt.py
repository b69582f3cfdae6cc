"""Algorithm 1 — the namenode's global optimization.

When the namenode has transfer records for the requesting client it
computes ``n = num_active_datanodes / replication`` (the maximum pipeline
count) and picks the *first* datanode uniformly at random from the
client's ``n`` fastest datanodes; the second replica goes to a random
remote-rack node and the third to the second's rack, preserving the
default policy's fault-tolerance layout.  Without records it falls back
to the original HDFS method (Algorithm 1 line 21).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Sequence

from ..hdfs.placement import (
    DefaultPlacementPolicy,
    PlacementPolicy,
    place_replicas,
)
from ..hdfs.protocol import NoDatanodesAvailable

if TYPE_CHECKING:  # pragma: no cover
    from ..hdfs.datanode_manager import DatanodeManager
    from ..hdfs.namenode import SpeedRegistry
    from ..net.topology import Topology

__all__ = ["SmarthPlacementPolicy"]


class SmarthPlacementPolicy(PlacementPolicy):
    """TopN-speed-aware placement with the default policy as fallback."""

    def __init__(
        self,
        topology: "Topology",
        datanodes: "DatanodeManager",
        speeds: "SpeedRegistry",
        rng: random.Random,
        replication: int,
        enabled: bool = True,
    ):
        self.topology = topology
        self.datanodes = datanodes
        self.speeds = speeds
        self.rng = rng
        self.replication = replication
        self.enabled = enabled
        self.fallback = DefaultPlacementPolicy(topology, datanodes, rng)
        #: Diagnostic counters: how often each path was taken.
        self.topn_selections = 0
        self.fallback_selections = 0

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
        live_set = self.datanodes.live_set()
        available: Sequence[str]
        if excluded_set:
            available = [d for d in live if d not in excluded_set]
        else:
            available = live
        if not available:
            raise NoDatanodesAvailable("no live datanodes available")
        replication = min(replication, len(available))

        # Algorithm 1 line 3: the maximum pipeline size n = num / repli.
        n = max(1, len(live) // max(1, self.replication))
        # Line 5: TopN is the client's n fastest datanodes *cluster-wide*.
        # The §IV-C disjointness rule then restricts the pick to currently
        # available ones — computing TopN only over available nodes would
        # hand out known-slow first datanodes whenever the fast ones are
        # busy, which defeats the optimization.
        top_global = (
            self.speeds.top_n(client, n, among=live_set) if self.enabled else []
        )
        if not top_global:
            # Line 21: no transmission records → original HDFS method.
            self.fallback_selections += 1
            return self.fallback.choose_targets(client, replication, excluded_set)
        if len(top_global) < n:
            # Fewer than n datanodes have records: fill the TopN with
            # unmeasured candidates.  They are untested, not slow — §III-C
            # explicitly wants nodes without fresh records to get "a
            # chance to test the bandwidth performance"; without this a
            # single slow early measurement would shadow every unmeasured
            # fast node indefinitely.
            top_set = set(top_global)
            unmeasured = [d for d in live if d not in top_set]
            self.rng.shuffle(unmeasured)
            top_global = top_global + unmeasured[: n - len(top_global)]

        # Membership in ``available`` without materializing a set of it:
        # available == live minus excluded by construction.
        top_n = [
            d for d in top_global
            if d in live_set and d not in excluded_set
        ]
        if not top_n:
            # Every TopN node is busy in another of this client's
            # pipelines: take the fastest of what is available (known
            # speeds first, then unmeasured).
            ranked = self.speeds.top_n(
                client, len(available), among=frozenset(available)
            )
            ranked_set = set(ranked)
            unmeasured = [d for d in available if d not in ranked_set]
            self.rng.shuffle(unmeasured)
            top_n = (ranked + unmeasured)[:1]

        self.topn_selections += 1
        # Line 10: first datanode random among the client's TopN.
        first = self._pick(self.rng, top_n)
        # Lines 12-16: the rest follow the default policy's rack rule.
        return place_replicas(
            self.rng, self.topology.rack_map, available, first, replication
        )
