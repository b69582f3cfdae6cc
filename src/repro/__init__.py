"""SMARTH: Enabling Multi-pipeline Data Transfer in HDFS — a full
reproduction (ICPP 2014, Zhang, Wang & Huang).

The package simulates the complete HDFS 1.0.3 write path (namenode,
datanodes, single-pipeline client) plus the SMARTH protocol
(multi-pipeline client, FNFA, global/local optimizers, multi-pipeline
fault tolerance) on a discrete-event cluster substrate, and regenerates
every table and figure of the paper's evaluation.

Quickstart::

    from repro import two_rack, compare

    scenario = two_rack("small", throttle_mbps=50)
    hdfs, smarth, improvement = compare(scenario, "1GB")
    print(f"HDFS {hdfs.duration:.0f}s, SMARTH {smarth.duration:.0f}s "
          f"({improvement:.0f}% faster)")
"""

from .analysis import (
    CostParameters,
    hdfs_time,
    improvement_percent,
    smarth_time,
    smarth_time_refined,
)
from .cluster import (
    LARGE,
    MEDIUM,
    SMALL,
    Cluster,
    build_heterogeneous,
    build_homogeneous,
)
from .config import HdfsConfig, NetworkConfig, SimulationConfig, SmarthConfig
from .analysis.trace import Journal, TraceEvent
from .faults import FaultInjector
from .hdfs import (
    HdfsClient,
    HdfsDeployment,
    HdfsReader,
    ReadResult,
    ReplicationMonitor,
    WriteResult,
)
from .mapred import JobConfig, JobResult, MapRunner
from .sim import Environment
from .smarth import SmarthClient, SmarthDeployment
from .units import GB, KB, MB, gbps, mbps, parse_size
from .workloads import (
    MultiUploadOutcome,
    UploadOutcome,
    compare,
    contention,
    heterogeneous,
    run_concurrent_uploads,
    run_upload,
    size_sweep,
    sweep,
    two_rack,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SimulationConfig",
    "HdfsConfig",
    "SmarthConfig",
    "NetworkConfig",
    # substrate
    "Environment",
    "Cluster",
    "build_homogeneous",
    "build_heterogeneous",
    "SMALL",
    "MEDIUM",
    "LARGE",
    # systems
    "HdfsDeployment",
    "HdfsClient",
    "HdfsReader",
    "ReadResult",
    "SmarthDeployment",
    "SmarthClient",
    "WriteResult",
    "ReplicationMonitor",
    # workloads
    "two_rack",
    "contention",
    "heterogeneous",
    "run_upload",
    "compare",
    "UploadOutcome",
    "run_concurrent_uploads",
    "MultiUploadOutcome",
    "sweep",
    "size_sweep",
    "FaultInjector",
    "MapRunner",
    "JobConfig",
    "JobResult",
    "Journal",
    "TraceEvent",
    # analysis
    "CostParameters",
    "hdfs_time",
    "smarth_time",
    "smarth_time_refined",
    "improvement_percent",
    # units
    "KB",
    "MB",
    "GB",
    "mbps",
    "gbps",
    "parse_size",
]
