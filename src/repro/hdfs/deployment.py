"""Wiring an HDFS service deployment onto a cluster substrate.

:class:`HdfsDeployment` instantiates the namenode and one datanode service
per datanode host, registers them (each starts its analytic heartbeat
chain at once), and provides :meth:`open_pipeline` — the §II step 3
construction both the baseline client and SMARTH use to chain
BlockReceivers with their ACK relays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..analysis.trace import Journal
from ..cluster.builder import Cluster
from ..cluster.node import Node
from ..obs import MetricsRegistry, Tracer
from ..policy.registry import PolicySpec, resolve_policy
from ..rng import substream
from ..sim import Environment, Event, Store
from .datanode import BlockReceiver, Datanode
from .namenode import Namenode
from .protocol import Block
from .replication import ReplicationMonitor

__all__ = ["HdfsDeployment", "PipelineHandle"]


@dataclass
class PipelineHandle:
    """Client-side handle on one live block pipeline."""

    block: Block
    targets: tuple[str, ...]
    receivers: list[BlockReceiver]
    #: ACKs aggregated across the whole pipeline arrive here.
    ack_in: Store
    #: Fires with the failed datanode's name on any pipeline fault.
    error: Event
    #: FNFAs from the first datanode (SMARTH pipelines only).
    fnfa_in: Optional[Store] = None

    def teardown(self) -> None:
        """Abort every receiver (recovery step: 'close all streams')."""
        for receiver in self.receivers:
            receiver.abort(None)


class HdfsDeployment:
    """An HDFS instance (namenode + datanodes) running on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        enable_replication_monitor: bool = True,
        observe: bool = False,
        start_services: bool = True,
        policy: PolicySpec = None,
    ):
        self.cluster = cluster
        self.config = cluster.config
        self.env: Environment = cluster.env
        self.network = cluster.network
        #: Structured protocol trace shared by every service on this
        #: deployment (see repro.analysis.trace).
        self.journal = Journal()
        #: Span tracing + metrics (repro.obs).  Disabled by default —
        #: every instrument call then short-circuits on one predicate.
        self.tracer = Tracer(enabled=observe)
        self.metrics = MetricsRegistry(enabled=observe)
        if observe:
            self.tracer.attach_journal(self.journal)
        #: Simulated times at which a datanode kill is *scheduled*
        #: (FaultInjector registers them up front).  Both trains run
        #: under scheduled kills.
        self.scheduled_disturbances: list[float] = []
        #: The live read train of each reader host (see
        #: :class:`~repro.hdfs.train.ReadTrain`); a train leaves once its
        #: last stream settles.
        self.read_trains: dict = {}

        self.namenode = Namenode(
            env=self.env,
            node=cluster.namenode_host,
            network=self.network,
            config=self.config.hdfs,
            seed=self.config.seed,
            journal=self.journal,
            tracer=self.tracer,
            metrics=self.metrics,
            start_monitor=start_services,
        )
        self.datanodes: dict[str, Datanode] = {}
        for host in cluster.datanode_hosts:
            datanode = Datanode(
                self.env, host, self.network, self.config.hdfs,
                tracer=self.tracer, metrics=self.metrics,
            )
            datanode.register_with(self.namenode, start_heartbeat=start_services)
            self.datanodes[host.name] = datanode

        #: The deployment's one strategy object (DESIGN.md §12): ``None``
        #: resolves ``"default"``.
        self.policy = resolve_policy(policy, self)
        self.replication_monitor: Optional[ReplicationMonitor] = (
            ReplicationMonitor(self, autostart=start_services)
            if enable_replication_monitor
            else None
        )

    def client(self, host: Optional[Node] = None, name: Optional[str] = None):
        """Create a baseline write client on ``host`` (default: the
        cluster's client node)."""
        from .client.data_streamer import HdfsClient

        return HdfsClient(self, host=host, name=name)

    def datanode(self, name: str) -> Datanode:
        try:
            return self.datanodes[name]
        except KeyError:
            raise KeyError(f"unknown datanode {name!r}") from None

    def live_datanode_count(self) -> int:
        return sum(1 for d in self.datanodes.values() if d.node.alive)

    def ranked_replicas(
        self,
        block: Block,
        client: str,
        node: Node,
        seed: Optional[int] = None,
        exclude: frozenset[str] | set[str] = frozenset(),
    ) -> list[str]:
        """Live finalized holders of ``block``, best-first for ``client``.

        The single replica-selection path shared by the reader and the
        MapReduce scheduler: holders are filtered to live nodes, shuffled
        by a per-(client, block) substream (so ties left by the policy's
        sorts break seed-stably and independently of read interleaving),
        then handed to :meth:`repro.policy.Policy.rank_replicas` — speed
        ranking with locality tie-breaks by default, overridable per
        policy.  ``exclude`` drops replicas already tried this read.
        """
        if seed is None:
            seed = self.config.seed ^ 0x8EAD
        holders = [
            dn
            for dn in self.namenode.blocks.locations(block.block_id)
            if dn not in exclude and self.datanodes[dn].node.alive
        ]
        substream(seed, client, block.block_id).shuffle(holders)
        return self.policy.rank_replicas(client, block.block_id, holders, node)

    # ------------------------------------------------------------------
    def open_pipeline(
        self,
        block: Block,
        targets: tuple[str, ...],
        client_node: Node,
        want_fnfa: bool = False,
        buffer_bytes: Optional[int] = None,
        initial_bytes: int = 0,
    ) -> PipelineHandle:
        """Chain BlockReceivers across ``targets`` (§II step 3).

        Receivers are created head-first and linked; ACK stores are wired
        so each hop's relay feeds the previous hop, with the first
        datanode's ACKs landing in the handle's ``ack_in``.
        """
        env = self.env
        ack_in: Store = Store(env)
        error: Event = env.event()
        fnfa_in: Optional[Store] = Store(env) if want_fnfa else None

        receivers: list[BlockReceiver] = []
        prev: Optional[BlockReceiver] = None
        try:
            for i, name in enumerate(targets):
                datanode = self.datanode(name)
                receiver = datanode.open_receiver(
                    block=block,
                    ack_out=ack_in if i == 0 else None,
                    error=error,
                    fnfa_out=fnfa_in if i == 0 else None,
                    client_node=client_node if i == 0 else None,
                    upstream_node=client_node if i == 0 else prev.host,
                    buffer_bytes=buffer_bytes,
                    initial_bytes=initial_bytes,
                    upstream=prev,
                )
                if prev is not None:
                    prev.set_downstream(receiver)
                receivers.append(receiver)
                prev = receiver
        except Exception:
            # A target refused the connection (e.g. DatanodeDead): tear
            # down the receivers already chained so they don't linger as
            # phantom active streams, then let the caller recover.
            for receiver in receivers:
                receiver.abort(None)
            raise

        self.journal.emit(
            env.now,
            "pipeline_open",
            f"block:{block.block_id}",
            targets=targets,
            generation=block.generation,
            client=client_node.name,
        )
        self.metrics.count("pipelines_opened")
        return PipelineHandle(
            block=block,
            targets=targets,
            receivers=receivers,
            ack_in=ack_in,
            error=error,
            fnfa_in=fnfa_in,
        )
