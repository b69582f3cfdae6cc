"""The HDFS substrate: a discrete-event model of the Hadoop 1.0.3 write path.

Exposes the namenode, datanode and client services plus
:class:`HdfsDeployment`, which wires them onto a cluster.
"""

from .block_manager import BlockInfo, BlockManager, ReplicaInfo
from .client import (
    BlockUnavailable,
    HdfsClient,
    HdfsReader,
    PacketResponder,
    ReadResult,
    plan_file,
)
from .datanode import BlockReceiver, Datanode
from .datanode_manager import DatanodeDescriptor, DatanodeManager
from .deployment import HdfsDeployment, PipelineHandle
from .namenode import Namenode, SpeedRegistry
from .namespace import FileState, INodeFile, Namespace
from .placement import DefaultPlacementPolicy, PlacementPolicy
from .replication import ReplicationMonitor, copy_block
from .protocol import (
    FNFA,
    Ack,
    Block,
    BlockState,
    BlockTargets,
    DatanodeDead,
    FileAlreadyExists,
    FileNotFound,
    HdfsError,
    LeaseConflict,
    NoDatanodesAvailable,
    Packet,
    WriteResult,
)

__all__ = [
    "HdfsDeployment",
    "PipelineHandle",
    "Namenode",
    "SpeedRegistry",
    "Datanode",
    "BlockReceiver",
    "HdfsClient",
    "HdfsReader",
    "ReadResult",
    "BlockUnavailable",
    "PacketResponder",
    "plan_file",
    "Namespace",
    "INodeFile",
    "FileState",
    "BlockManager",
    "BlockInfo",
    "ReplicaInfo",
    "DatanodeManager",
    "DatanodeDescriptor",
    "PlacementPolicy",
    "DefaultPlacementPolicy",
    "ReplicationMonitor",
    "copy_block",
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
