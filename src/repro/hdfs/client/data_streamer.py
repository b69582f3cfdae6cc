"""The baseline HDFS client: single-pipeline, stop-and-wait at block
boundaries (§II, Figure 1/Figure 3).

For each block, the client asks the namenode for targets, builds ONE
pipeline, streams every packet through it, and then **waits for the ACKs
of all packets from all datanodes** before requesting the next block —
the idle time SMARTH eliminates.  Fault handling follows Algorithm 3 via
:mod:`repro.hdfs.client.recovery`.
"""

from __future__ import annotations

from typing import Optional

from ...cluster.node import Node
from ...sim import ProcessGenerator, race
from ...units import MB
from ..deployment import HdfsDeployment, PipelineHandle
from ..protocol import DatanodeDead, WriteResult
from ..train import plan_train
from .output_stream import start_producer
from .recovery import recover_pipeline
from .responder import PacketResponder
from .send import FAILED, BlockProgress, send_block

__all__ = ["HdfsClient", "SOCKET_BUFFER"]

#: Effective per-stream buffering at a datanode in the *baseline* write
#: path (OS socket buffers + BlockReceiver staging) — a few MB, unlike
#: SMARTH's one-block first-datanode buffer (§IV-C).
SOCKET_BUFFER = 4 * MB


class HdfsClient:
    """Baseline write client (the paper's unmodified Hadoop 1.0.3)."""

    system = "hdfs"

    def __init__(
        self,
        deployment: HdfsDeployment,
        host: Optional[Node] = None,
        name: Optional[str] = None,
    ):
        self.deployment = deployment
        self.env = deployment.env
        self.network = deployment.network
        self.config = deployment.config
        self.node = host or deployment.cluster.client_host
        self.name = name or self.node.name

    # ------------------------------------------------------------------
    def put(self, path: str, size: int) -> ProcessGenerator:
        """Upload ``size`` bytes to ``path``; returns a WriteResult.

        Drive it with ``env.run(until=env.process(client.put(...)))``.
        """
        hdfs_cfg = self.config.hdfs
        namenode = self.deployment.namenode
        tracer = self.deployment.tracer
        metrics = self.deployment.metrics
        actor = f"client:{self.name}"
        start = self.env.now
        t_upload = tracer.begin(
            "upload", actor, f"upload:{path}", start,
            size=size, system=self.system,
        )

        # Step 1: create the namespace entry.
        yield from namenode.create_file(self.name, path)

        # Step 2: the producer starts filling the data queue.
        plans, production = start_producer(self.env, self.node, size, hdfs_cfg)

        pipelines: list[tuple[str, ...]] = []
        recoveries = 0
        blacklist: set[str] = set()

        for plan in plans:
            result = yield from namenode.add_block(
                self.name, path, plan.size, excluded=blacklist
            )
            block, targets = result.block, result.targets
            track = f"b{block.block_id}"
            t_block = tracer.begin(
                "block", actor, track, self.env.now,
                parent=t_upload, size=plan.size,
            )
            metrics.count("blocks_total")

            progress = BlockProgress(plan, production)

            while True:  # retry loop around pipeline failures
                t_attempt = tracer.begin(
                    "pipeline", actor, track, self.env.now,
                    parent=t_block, targets=targets,
                )
                try:
                    handle = self.deployment.open_pipeline(
                        block,
                        targets,
                        self.node,
                        buffer_bytes=SOCKET_BUFFER,
                        initial_bytes=progress.acked_bytes,
                    )
                except DatanodeDead as dead:
                    # The namenode's liveness view lags crashes by up to
                    # dead_node_heartbeats intervals, so addBlock (or a
                    # recovery) can hand out a target that is already
                    # down.  Same treatment as a mid-stream failure.
                    failed = dead.datanode
                    tracer.end(
                        t_attempt, self.env.now, aborted=True, failed=failed
                    )
                else:
                    metrics.gauge("pipelines_live", +1)
                    yield from self.network.connection_setup(len(targets))
                    responder = PacketResponder(self.env, block, handle.ack_in)

                    failed = yield from self._stream_block(
                        handle, responder, progress, t_attempt
                    )
                    metrics.gauge("pipelines_live", -1)
                    if failed is None:
                        tracer.end(t_attempt, self.env.now)
                        break
                    tracer.end(
                        t_attempt, self.env.now, aborted=True, failed=failed
                    )
                    handle.teardown()
                    responder.stop()
                    progress.end_attempt(responder)

                # Algorithm 3: teardown, recover, then resend every
                # un-ACKed packet taken so far.
                recoveries += 1
                blacklist.add(failed)
                block, targets = yield from recover_pipeline(
                    self.deployment,
                    self.name,
                    block,
                    targets,
                    failed,
                    progress.acked_bytes,
                    blacklist,
                    trace_parent=t_block,
                )

            self.deployment.journal.emit(
                self.env.now,
                "pipeline_done",
                f"block:{block.block_id}",
                client=self.name,
            )
            tracer.end(t_block, self.env.now)
            pipelines.append(targets)

        # Steps 5–6: close the stream and complete the file.
        yield from namenode.complete_file(self.name, path)
        tracer.end(t_upload, self.env.now)

        return WriteResult(
            path=path,
            size=size,
            start=start,
            end=self.env.now,
            n_blocks=len(plans),
            system=self.system,
            pipelines=pipelines,
            max_concurrent_pipelines=1,
            recoveries=recoveries,
        )

    # ------------------------------------------------------------------
    def _stream_block(
        self,
        handle: PipelineHandle,
        responder: PacketResponder,
        progress: BlockProgress,
        t_attempt: int = 0,
    ) -> ProcessGenerator:
        """Send one block's packets and wait for all ACKs (stop-and-wait).

        Returns ``None`` on success or the failed datanode's name.
        """
        train = None
        if not progress.taken:
            # Steady-state fast path: coalesce the whole block into one
            # analytically-conducted packet train (see repro.hdfs.train).
            train = plan_train(
                self.deployment, self.node, handle, responder, progress
            )
        status, failed = yield from send_block(
            self, handle, responder, progress, t_attempt, train,
            packets=progress.plan.n_packets - progress.acked,
        )
        if status is FAILED:
            return failed

        tracer = self.deployment.tracer
        t_ack = tracer.begin(
            "ack", f"client:{self.name}", f"b{handle.block.block_id}",
            self.env.now, parent=t_attempt,
        )
        # §II step 4/5: block boundary — wait for every packet's ACK.
        yield race(self.env, responder.block_done, handle.error)
        if not responder.block_done.triggered:
            tracer.end(t_ack, self.env.now, aborted=True)
            return handle.error.value
        tracer.end(t_ack, self.env.now)
        return None
