"""Wire-protocol data types for the simulated HDFS write path.

These mirror Hadoop 1.0.3's client↔namenode and client↔datanode messages
at the granularity the paper's analysis uses: blocks, packets, per-packet
ACKs, and SMARTH's FIRST NODE FINISH ACK (FNFA).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Block",
    "Packet",
    "Ack",
    "FNFA",
    "BlockTargets",
    "BlockState",
    "WriteResult",
    "HdfsError",
    "FileAlreadyExists",
    "FileNotFound",
    "LeaseConflict",
    "NoDatanodesAvailable",
    "DatanodeDead",
]


class HdfsError(Exception):
    """Base class for protocol-level errors."""


class FileAlreadyExists(HdfsError):
    """create() on an existing path (namenode pre-check, §II step 1)."""


class FileNotFound(HdfsError):
    """Operation on a path missing from the namespace."""


class LeaseConflict(HdfsError):
    """A second client tried to write a file already under construction."""


class NoDatanodesAvailable(HdfsError):
    """Placement could not find enough live, un-excluded datanodes."""


class DatanodeDead(HdfsError, RuntimeError):
    """A connection was attempted to a crashed datanode.

    The namenode's liveness view is heartbeat-driven, so for up to
    ``dead_node_heartbeats`` intervals after a crash it can still hand a
    dead datanode out as a pipeline target; the client discovers the
    truth only when the connection is refused.  Clients treat this
    exactly like a mid-stream pipeline failure: blacklist the node and
    recover (also a ``RuntimeError`` for backward compatibility).
    """

    def __init__(self, datanode: str):
        super().__init__(f"datanode {datanode} is dead")
        self.datanode = datanode


class BlockState(Enum):
    """Lifecycle of a block on the namenode."""

    UNDER_CONSTRUCTION = "under_construction"
    COMMITTED = "committed"
    COMPLETE = "complete"


@dataclass(frozen=True, slots=True)
class Block:
    """One HDFS block of a file."""

    block_id: int
    path: str
    index: int
    size: int
    #: Generation stamp, bumped on pipeline recovery (Hadoop semantics).
    generation: int = 0

    def with_generation(self, generation: int) -> "Block":
        return Block(self.block_id, self.path, self.index, self.size, generation)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("block size must be non-negative")


@dataclass(frozen=True)
class Packet:
    """One wire packet of a block (§II step 2 splits blocks into packets).

    It names no block: a packet only passes through the receivers and the
    responder of one block generation, and a resend after recovery reuses
    the same packet on the rebuilt pipeline.
    """

    seq: int
    size: int
    is_last: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("packet size must be positive")
        if self.seq < 0:
            raise ValueError("packet seq must be non-negative")


@dataclass(frozen=True)
class Ack:
    """Aggregate per-packet acknowledgement travelling client-ward.

    An ACK reaching the client means every datanode in the pipeline has
    received and stored the packet (each hop only relays after its local
    write and its downstream's ACK, as in Hadoop's PacketResponder chain).
    """

    block_id: int
    seq: int


@dataclass(frozen=True)
class FNFA:
    """SMARTH's FIRST NODE FINISH ACK: the first datanode received and
    stored the entire block (§III-A step 3)."""

    block_id: int
    datanode: str
    #: Simulated time the first datanode finished storing the block.
    finished_at: float = 0.0


@dataclass(frozen=True)
class BlockTargets:
    """addBlock() response: a new block plus its pipeline datanodes."""

    block: Block
    targets: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("a pipeline needs at least one target")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"duplicate targets in pipeline: {self.targets}")


@dataclass
class WriteResult:
    """Everything a completed upload reports back to the caller."""

    path: str
    size: int
    start: float
    end: float
    n_blocks: int
    system: str
    #: Per-block pipeline target lists, in block order.
    pipelines: list[tuple[str, ...]] = field(default_factory=list)
    #: Peak number of simultaneously live pipelines (1 for baseline HDFS).
    max_concurrent_pipelines: int = 1
    #: Number of pipeline-recovery events survived during the write.
    recoveries: int = 0

    @property
    def duration(self) -> float:
        """End-to-end upload time (the paper's measured quantity)."""
        return self.end - self.start

    @property
    def throughput(self) -> float:
        """Average goodput in bytes/second."""
        return self.size / self.duration if self.duration > 0 else float("inf")
