"""Configuration dataclasses shared across the simulator.

Three layers of knobs:

* :class:`NetworkConfig` — physical substrate constants (latencies, ACK
  sizes) that the paper treats as fixed properties of EC2.
* :class:`HdfsConfig` — the Hadoop 1.0.3 parameters the paper uses
  (64 MB blocks, 64 KB packets, replication 3, 3-second heartbeats).
* :class:`SmarthConfig` — the SMARTH-specific parameters from §III
  (local-optimization threshold 0.8, pipeline cap ``num/repli``).

All sizes are bytes, rates bytes/second, times seconds — see
:mod:`repro.units`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .units import KB, MB

__all__ = ["NetworkConfig", "HdfsConfig", "SmarthConfig", "SimulationConfig"]


@dataclass(frozen=True)
class NetworkConfig:
    """Constants of the simulated network substrate."""

    #: One-way propagation latency between any two nodes (seconds).  EC2
    #: intra-region RTTs are a few hundred microseconds.
    link_latency: float = 200e-6
    #: Latency of a control message (ACK relay hop, FNFA) — control
    #: packets are tiny, so they are modelled as latency-only and do not
    #: occupy NIC transmit channels (§III-D: ACK time overlaps data).
    control_latency: float = 200e-6
    #: Per-hop TCP/stream connection setup cost when building a pipeline.
    connection_setup: float = 1e-3

    def __post_init__(self) -> None:
        if self.link_latency < 0 or self.control_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.connection_setup < 0:
            raise ValueError("connection_setup must be non-negative")


@dataclass(frozen=True)
class HdfsConfig:
    """Hadoop 1.0.3 write-path parameters (paper §II)."""

    #: HDFS block size; the paper (and Hadoop 1.x) default is 64 MB.
    block_size: int = 64 * MB
    #: Wire packet size; Hadoop default is 64 KB.  Experiments may raise
    #: this (simulation granularity) — dynamics are granularity-stable,
    #: which ``benchmarks/bench_ablation_granularity.py`` demonstrates.
    packet_size: int = 64 * KB
    #: Replication factor; 3 in every paper experiment.
    replication: int = 3
    #: Round-trip latency of a namenode RPC (``T_n`` in §III-D).
    namenode_rpc_latency: float = 1e-3
    #: Heartbeat period (also carries SMARTH speed reports): 3 s.
    heartbeat_interval: float = 3.0
    #: Heartbeats missed before the namenode declares a datanode dead.
    #: (Real HDFS waits 10.5 minutes; kept proportionally shorter so fault
    #: experiments run in reasonable simulated time.)
    dead_node_heartbeats: int = 10
    #: Packet-train coalescing for the pipeline hot loop.  ``0`` (the
    #: default) coalesces a whole block's steady-state packet stream into
    #: one analytically-quoted :class:`~repro.hdfs.train.PacketTrain` per
    #: pipeline; ``1`` disables coalescing (legacy per-packet events, the
    #: equivalence oracle).  The train planner models the §IV-C buffer
    #: token bound exactly, so the coalesced window is always clamped by
    #: buffer headroom.  Timing is bit-identical either way
    #: (golden-equivalence tested).
    coalesce_packets: int = 0
    #: Concurrent read streams one datanode serves at a time (the
    #: ``dfs.datanode.max.transfer.threads`` analogue).  Excess readers
    #: queue at the datanode and the wait is recorded in the
    #: ``read.serve_wait`` histogram.  Reads and writes additionally share
    #: each node's disk channel and NIC channels, so a serving datanode
    #: slows co-resident pipeline traffic and vice versa.
    serve_streams: int = 4
    #: Read-train coalescing for the read hot loop, with the
    #: ``coalesce_packets`` semantics: ``0`` (the default) plans every
    #: block stream into a reader host analytically on that host's
    #: :class:`~repro.hdfs.train.ReadTrain`; ``1`` disables
    #: coalescing (legacy per-chunk events, the equivalence oracle).
    #: Timing is bit-identical either way (equivalence tested like
    #: ``coalesce_packets``).
    coalesce_reads: int = 0

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if not 0 < self.packet_size <= self.block_size:
            raise ValueError("packet_size must be in (0, block_size]")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.namenode_rpc_latency < 0:
            raise ValueError("namenode_rpc_latency must be non-negative")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.coalesce_packets not in (0, 1):
            raise ValueError("coalesce_packets must be 0 or 1")
        if self.serve_streams < 1:
            raise ValueError("serve_streams must be >= 1")
        if self.coalesce_reads not in (0, 1):
            raise ValueError("coalesce_reads must be 0 or 1")

    @property
    def packets_per_block(self) -> int:
        """Number of wire packets in one full block (⌈B/P⌉)."""
        return -(-self.block_size // self.packet_size)


@dataclass(frozen=True)
class SmarthConfig:
    """SMARTH protocol parameters (paper §III)."""

    #: Algorithm 2 threshold: with probability ``1 - threshold`` the client
    #: swaps the first datanode with a random other target to refresh its
    #: speed records.  The paper fixes this at 0.8.
    local_opt_threshold: float = 0.8
    #: Enable Algorithm 1 (namenode-side TopN first-datanode selection).
    enable_global_opt: bool = True
    #: Enable Algorithm 2 (client-side sort + exploratory swap).
    enable_local_opt: bool = True
    #: Cap on concurrently live pipelines.  ``None`` means the paper's rule
    #: ``num_active_datanodes / replication`` (§IV-C).
    max_pipelines: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.local_opt_threshold <= 1.0:
            raise ValueError("local_opt_threshold must be in [0, 1]")
        if self.max_pipelines is not None and self.max_pipelines < 1:
            raise ValueError("max_pipelines must be >= 1")

    def pipeline_cap(self, num_datanodes: int, replication: int) -> int:
        """The effective live-pipeline cap for a cluster (Algorithm 1 l.3)."""
        if self.max_pipelines is not None:
            return self.max_pipelines
        return max(1, num_datanodes // max(1, replication))


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level bundle handed to scenario builders and workloads."""

    network: NetworkConfig = field(default_factory=NetworkConfig)
    hdfs: HdfsConfig = field(default_factory=HdfsConfig)
    smarth: SmarthConfig = field(default_factory=SmarthConfig)
    #: Seed for every stochastic choice (placement, local-opt swaps).
    seed: int = 20140901  # ICPP 2014 conference month

    def with_hdfs(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with :class:`HdfsConfig` fields overridden."""
        return replace(self, hdfs=replace(self.hdfs, **kwargs))

    def with_smarth(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with :class:`SmarthConfig` fields overridden."""
        return replace(self, smarth=replace(self.smarth, **kwargs))

    def with_network(self, **kwargs: object) -> "SimulationConfig":
        """Return a copy with :class:`NetworkConfig` fields overridden."""
        return replace(self, network=replace(self.network, **kwargs))
