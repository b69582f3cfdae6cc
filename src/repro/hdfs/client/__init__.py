"""Client-side HDFS write path (baseline Hadoop 1.0.3 semantics)."""

from .data_streamer import HdfsClient
from .input_stream import BlockUnavailable, HdfsReader, ReadResult
from .output_stream import BlockPlan, Production, plan_file, start_producer
from .recovery import RecoveryFailed, recover_pipeline
from .responder import PacketResponder

__all__ = [
    "HdfsClient",
    "HdfsReader",
    "ReadResult",
    "BlockUnavailable",
    "PacketResponder",
    "BlockPlan",
    "Production",
    "plan_file",
    "start_producer",
    "recover_pipeline",
    "RecoveryFailed",
]
