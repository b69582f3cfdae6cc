"""Block and replica bookkeeping on the namenode.

Tracks where every block's replicas live, how many bytes each replica has
confirmed, and block lifecycle (under construction → complete).  Fault
experiments use :meth:`BlockManager.remove_datanode` to drop replicas of a
dead node and :meth:`BlockManager.under_replicated` to check the damage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .protocol import Block, BlockState, FileNotFound

__all__ = ["ReplicaInfo", "BlockInfo", "BlockManager"]


@dataclass(slots=True)
class ReplicaInfo:
    """One datanode's copy of a block."""

    datanode: str
    bytes_confirmed: int = 0
    finalized: bool = False


@dataclass(slots=True)
class BlockInfo:
    """Namenode-side state of one block."""

    block: Block
    state: BlockState = BlockState.UNDER_CONSTRUCTION
    replicas: dict[str, ReplicaInfo] = field(default_factory=dict)

    @property
    def finalized_replicas(self) -> int:
        return sum(1 for r in self.replicas.values() if r.finalized)


class BlockManager:
    """Allocates block IDs and tracks replica state."""

    def __init__(self) -> None:
        #: Id of the next block minted.
        self._next_id = 1000
        self._blocks: dict[int, BlockInfo] = {}
        #: Finalized replica count -> the blocks with that many, so the
        #: replication monitor's scan visits only the short ones.
        self._by_count: dict[int, set[int]] = {}
        #: Called after every replica or commit change (the replication
        #: monitor's wake-up hook).
        self.on_change: Optional[Callable[[], None]] = None

    def _changed(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # -- allocation ----------------------------------------------------------
    def allocate(self, path: str, index: int, size: int) -> Block:
        """Mint a new block for ``path``."""
        block_id = self._next_id
        self._next_id = block_id + 1
        block = Block(block_id=block_id, path=path, index=index, size=size)
        self._blocks[block.block_id] = BlockInfo(block=block)
        self._by_count.setdefault(0, set()).add(block.block_id)
        return block

    def expect_replicas(self, block_id: int, datanodes: tuple[str, ...]) -> None:
        """Record the pipeline targets as pending replica locations."""
        info = self._get(block_id)
        for dn in datanodes:
            info.replicas.setdefault(dn, ReplicaInfo(datanode=dn))
        self._changed()

    def bump_generation(self, block_id: int) -> Block:
        """Recovery: new generation stamp invalidates stale replicas."""
        info = self._get(block_id)
        info.block = info.block.with_generation(info.block.generation + 1)
        return info.block

    # -- replica reports -------------------------------------------------------
    def replica_received(self, block_id: int, datanode: str, size: int) -> None:
        """A datanode reports a finalized replica (blockReceived)."""
        info = self._get(block_id)
        replica = info.replicas.setdefault(datanode, ReplicaInfo(datanode=datanode))
        replica.bytes_confirmed = size
        if not replica.finalized:
            replica.finalized = True
            self._recount(block_id, info, +1)
        self._changed()

    def drop_replica(self, block_id: int, datanode: str) -> None:
        """Forget one replica (failed datanode removed from a pipeline)."""
        info = self._get(block_id)
        replica = info.replicas.pop(datanode, None)
        if replica is not None and replica.finalized:
            self._recount(block_id, info, -1)
        self._changed()

    def commit(self, block_id: int) -> None:
        """Mark the block complete (client finished, replicas confirmed)."""
        info = self._get(block_id)
        info.state = BlockState.COMPLETE
        self._changed()

    # -- queries ----------------------------------------------------------------
    def info(self, block_id: int) -> BlockInfo:
        return self._get(block_id)

    def all_blocks(self) -> tuple[BlockInfo, ...]:
        """Every tracked block's info, in block-id order."""
        return tuple(self._blocks[bid] for bid in sorted(self._blocks))

    def locations(self, block_id: int) -> tuple[str, ...]:
        """Datanodes holding a finalized replica, sorted."""
        info = self._get(block_id)
        return tuple(sorted(d for d, r in info.replicas.items() if r.finalized))

    def replication_of(self, block_id: int) -> int:
        return self._get(block_id).finalized_replicas

    def under_replicated(self, required: int) -> tuple[int, ...]:
        """Block IDs with fewer than ``required`` finalized replicas."""
        short: list[int] = []
        for n, blocks in self._by_count.items():
            if n < required:
                short.extend(blocks)
        short.sort()
        return tuple(short)

    def blocks_on(self, datanode: str) -> tuple[int, ...]:
        """All block IDs with a (possibly pending) replica on ``datanode``."""
        return tuple(
            sorted(
                bid
                for bid, info in self._blocks.items()
                if datanode in info.replicas
            )
        )

    def remove_datanode(self, datanode: str) -> tuple[int, ...]:
        """Drop every replica on a dead datanode; returns affected blocks."""
        affected = self.blocks_on(datanode)
        for bid in affected:
            self.drop_replica(bid, datanode)
        return affected

    def _recount(self, block_id: int, info: BlockInfo, delta: int) -> None:
        """Move a block whose finalized replica count changed by
        ``delta`` (the replica change is already applied)."""
        n = info.finalized_replicas
        self._by_count[n - delta].discard(block_id)
        self._by_count.setdefault(n, set()).add(block_id)

    def _get(self, block_id: int) -> BlockInfo:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise FileNotFound(f"unknown block {block_id}") from None

    def __len__(self) -> int:
        return len(self._blocks)
