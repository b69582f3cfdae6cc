"""Hotspot-driven dynamic re-replication (popularity-aware replica counts).

*Intelligent Replication Management for HDFS Using Reinforcement
Learning* (Lee 2020) motivates replica counts that follow read demand:
blocks serving many concurrent readers deserve more copies (spreading
read load and shrinking the blast radius of a holder failure), and the
extra copies should be reclaimed once demand cools.

This policy implements the heuristic half of that idea.  The read path
reports every whole-block read through
:meth:`~repro.policy.base.Policy.note_read`; a block whose read count
within a sliding ``window`` reaches ``hot_reads`` is *hot* and its
target replication is raised to ``replication + boost``.  The existing
:class:`~repro.hdfs.replication.ReplicationMonitor` then heals it up
like any under-replicated block (same rack-aware target selection).
When the block cools, the monitor's excess pass trims it back down —
never below the configured base factor, so every durability invariant
(acked durability, replication convergence) keeps holding verbatim.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .base import Policy
from .registry import register_policy

__all__ = ["HotspotPolicy"]


@register_policy
class HotspotPolicy(Policy):
    """Popularity-driven replica management, registered as ``"hotspot"``.

    The three knobs are class attributes; subclass (or set them on an
    instance before binding) to retune, and :meth:`bind` validates them.
    The popularity counters belong to one binding: :meth:`bind` starts
    them empty, so an instance re-bound to a new deployment carries no
    heat over.
    """

    name = "hotspot"
    manages_excess = True
    #: Extra replicas granted to a hot block.
    boost = 1
    #: Reads within ``window`` that make a block hot.
    hot_reads = 3
    #: Sliding popularity window, simulated seconds.
    window = 30.0

    def bind(self, deployment) -> "HotspotPolicy":
        if self.boost < 1:
            raise ValueError("boost must be >= 1")
        if self.hot_reads < 1:
            raise ValueError("hot_reads must be >= 1")
        if self.window <= 0:
            raise ValueError("window must be positive")
        super().bind(deployment)
        self._reads: dict[int, deque] = {}
        self._hot: set[int] = set()
        #: Transition counters (for tests/reports).
        self.promotions = 0
        self.demotions = 0
        return self

    # -- popularity ----------------------------------------------------
    def note_read(self, block_id: int, datanode: str) -> None:
        now = self.deployment.env.now
        self._reads.setdefault(block_id, deque()).append(now)

    def heat(self, block_id: int, now: float) -> int:
        """Reads of ``block_id`` within the window ending at ``now``."""
        reads = self._reads.get(block_id)
        if not reads:
            return 0
        cutoff = now - self.window
        while reads and reads[0] < cutoff:
            reads.popleft()
        return len(reads)

    # -- targets -------------------------------------------------------
    def scan_replication(self) -> int:
        return self.replication + self.boost

    def target_replication(self, block_id: int, now: float) -> int:
        hot = self.heat(block_id, now) >= self.hot_reads
        if hot and block_id not in self._hot:
            self._hot.add(block_id)
            self.promotions += 1
        elif not hot and block_id in self._hot:
            self._hot.discard(block_id)
            self.demotions += 1
        return self.replication + self.boost if hot else self.replication

    def excess_replicas(
        self, block_id: int, holders: Sequence[str], now: float
    ) -> tuple[str, ...]:
        target = self.target_replication(block_id, now)
        extra = len(holders) - target
        if extra <= 0:
            return ()
        # Deterministic victim order (reverse name order): the boosted
        # copies were placed *after* the original pipeline's, on
        # later-sorted fresh-rack nodes more often than not, so trimming
        # from the top tends to return to the original layout.
        return tuple(sorted(holders, reverse=True)[:extra])

    def describe(self) -> dict:
        return {
            "name": self.name,
            "boost": self.boost,
            "hot_reads": self.hot_reads,
            "window": self.window,
        }
