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
from ...sim import ProcessGenerator, Store, race
from ..deployment import HdfsDeployment, PipelineHandle
from ..protocol import DatanodeDead, Packet, WriteResult
from ..train import plan_train
from .output_stream import start_producer
from .recovery import recover_pipeline
from .responder import PacketResponder
from .send import send_packet_inline

__all__ = ["HdfsClient"]


class HdfsClient:
    """Baseline write client (the paper's unmodified Hadoop 1.0.3)."""

    system = "hdfs"
    #: Whether the current upload's file fits the data queue (set per
    #: put); gates the train's batched feeder.
    _batchable = False

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

        # Step 2: producer starts filling the data queue.
        plans, data_queue, self._batchable = start_producer(
            self.env, self.node, path, size, hdfs_cfg
        )

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

            produced: dict[int, Packet] = {}
            acked_seqs: set[int] = set()

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
                        buffer_bytes=hdfs_cfg.socket_buffer,
                        initial_bytes=sum(produced[s].size for s in acked_seqs),
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
                    yield self.env.process(
                        self.network.connection_setup(len(targets))
                    )
                    responder = PacketResponder(self.env, block, handle.ack_in)

                    failed = yield from self._stream_block(
                        plan, handle, responder, produced, acked_seqs,
                        data_queue, track, t_attempt,
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

                # Algorithm 3: teardown, recover, then resend every
                # un-ACKed packet from ``produced``.
                recoveries += 1
                blacklist.add(failed)
                acked_bytes = sum(produced[s].size for s in acked_seqs)
                block, targets = yield from recover_pipeline(
                    self.deployment,
                    self.name,
                    block,
                    targets,
                    failed,
                    acked_bytes,
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
        plan,
        handle: PipelineHandle,
        responder: PacketResponder,
        produced: dict[int, Packet],
        acked_seqs: set[int],
        data_queue: Store,
        track: str = "",
        t_attempt: int = 0,
    ) -> ProcessGenerator:
        """Send one block's packets and wait for all ACKs (stop-and-wait).

        Returns ``None`` on success or the failed datanode's name.
        """
        tracer = self.deployment.tracer
        actor = f"client:{self.name}"
        to_send = [s for s in range(plan.n_packets) if s not in acked_seqs]
        t_stream = tracer.begin(
            "stream", actor, track, self.env.now,
            parent=t_attempt, packets=len(to_send),
        )

        # Steady-state fast path: coalesce the whole block into one
        # analytically-conducted packet train (see repro.hdfs.train).
        train = plan_train(
            self.deployment,
            self.node,
            handle,
            responder,
            data_queue,
            plan,
            fresh=not produced and not acked_seqs,
            batchable=self._batchable,
        )
        if train is not None:
            train.start()
            yield race(self.env, train.done, handle.error)
            if not train.done.triggered:
                for packet in train.packets:
                    produced[packet.seq] = packet
                if train.pending_get is not None:
                    # Legacy parity: a streamer blocked on the data queue
                    # at failure time still consumes the packet the
                    # producer eventually delivers, and recovery starts
                    # only then.
                    packet = yield train.pending_get
                    produced[packet.seq] = packet
                # Close the client spans at the legacy instants: if the
                # "sent" milestone fired before the failure the stream
                # span ended there and the ack wait dies now; otherwise
                # the stream span dies with the pipeline — after the
                # pending-get drain, exactly when a legacy streamer
                # parked on the data queue would have seen the error.
                if train.sent.triggered:
                    tracer.end(t_stream, train.sent_at)
                    t_ack = tracer.begin(
                        "ack", actor, track, train.sent_at, parent=t_attempt
                    )
                    tracer.end(t_ack, self.env.now, aborted=True)
                else:
                    tracer.end(t_stream, self.env.now, aborted=True)
                self._note_acked(responder, acked_seqs, to_send)
                return handle.error.value
            # Success: the legacy loop exits at the last packet's
            # first-hop arrival (= the train's "sent" milestone) and the
            # ack wait runs from there to block-done (= right now).
            tracer.end(t_stream, train.sent_at)
            t_ack = tracer.begin(
                "ack", actor, track, train.sent_at, parent=t_attempt
            )
            tracer.end(t_ack, self.env.now)
            self._note_acked(responder, acked_seqs, to_send)
            return None

        first = handle.receivers[0]
        for seq in to_send:
            packet = produced.get(seq)
            if packet is None:
                packet = yield data_queue.get()
                produced[seq] = packet

            failed = yield from send_packet_inline(
                self.env, self.network, self.node, first, packet, handle.error
            )
            if failed is not None:
                tracer.end(t_stream, self.env.now, aborted=True)
                self._note_acked(responder, acked_seqs, to_send)
                return failed
            responder.packet_sent(packet)

        tracer.end(t_stream, self.env.now)
        t_ack = tracer.begin("ack", actor, track, self.env.now, parent=t_attempt)
        # §II step 4/5: block boundary — wait for every packet's ACK.
        yield race(self.env, responder.block_done, handle.error)
        if not responder.block_done.triggered:
            tracer.end(t_ack, self.env.now, aborted=True)
            self._note_acked(responder, acked_seqs, to_send)
            return handle.error.value
        tracer.end(t_ack, self.env.now)
        self._note_acked(responder, acked_seqs, to_send)
        return None

    @staticmethod
    def _note_acked(
        responder: PacketResponder, acked_seqs: set[int], to_send: list[int]
    ) -> None:
        """Fold this attempt's acknowledged packets into the block state.

        ACKs arrive strictly in send order, so the acknowledged sequence
        numbers are a prefix of this attempt's send list.
        """
        acked_seqs.update(to_send[: responder.acked_count])
