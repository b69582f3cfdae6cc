"""The SMARTH client: asynchronous multi-pipeline upload (§III-A).

Per block: request targets (Algorithm 1 on the namenode), reorder them
locally (Algorithm 2), stream every packet to the first datanode, and on
FNFA immediately move to the next block while up to
``n = num_datanodes / replication`` pipelines replicate in the background.
A datanode serves at most one of this client's live pipelines and the
first datanode buffers one full block (§IV-C), so the client is never
gated by the slowest replica — only by its own NIC and the first
datanodes' bandwidth.

Fault tolerance follows Algorithm 4: failed pipelines enter an error set;
the client stops sending, recovers each one (Algorithm 3 semantics via
:func:`repro.hdfs.client.recovery.recover_pipeline`, resending the
un-ACKed packets), and then resumes the interrupted block.
"""

from __future__ import annotations

import random
from typing import Optional

from ..cluster.node import Node
from ..hdfs.client.output_stream import start_producer
from ..hdfs.client.recovery import recover_pipeline
from ..hdfs.client.responder import PacketResponder
from ..hdfs.client.send import FAILED, SENT, BlockProgress, send_block
from ..hdfs.deployment import HdfsDeployment, PipelineHandle
from ..hdfs.protocol import DatanodeDead, WriteResult
from ..hdfs.train import plan_train
from ..policy.base import NO_TUNING, ClientTuning
from ..sim import Event, Interrupt, ProcessGenerator, Resource, race
from .local_opt import LocalOptimizer
from .pipeline import PipelineState, SmarthPipeline
from .records import SpeedRecords, SpeedSample
from .reporter import speed_reporter

__all__ = ["SmarthClient"]


class SmarthClient:
    """Multi-pipeline write client implementing the SMARTH protocol."""

    system = "smarth"

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

        self.records = SpeedRecords()
        self.local_opt = LocalOptimizer(
            self.records,
            rng=random.Random(self.config.seed ^ 0x5A5A5A),
            threshold=self.config.smarth.local_opt_threshold,
            enabled=self.config.smarth.enable_local_opt,
        )
        self._reporter = self.env.process(
            speed_reporter(
                deployment.namenode,
                self.name,
                self.records,
                self.config.hdfs.heartbeat_interval,
            ),
            name=f"reporter:{self.name}",
        )

        # Algorithm 4's error pipeline set plus its wake-up signal.
        self._error_list: list[SmarthPipeline] = []
        self._error_flag: Event = self.env.event()
        self._active: set[SmarthPipeline] = set()
        self._blacklist: set[str] = set()
        self._recoveries = 0
        self._max_concurrent = 0
        self._trace_upload = 0
        self._datanode_set: frozenset[str] = frozenset()
        #: Per-upload knob overrides from the deployment policy (set at
        #: the start of each :meth:`put`; identity under the default policy).
        self._tuning: ClientTuning = NO_TUNING

    def _all_datanodes(self) -> frozenset[str]:
        """Deployment datanode names; cached, membership only ever grows."""
        if len(self._datanode_set) != len(self.deployment.datanodes):
            self._datanode_set = frozenset(self.deployment.datanodes)
        return self._datanode_set

    def stop_reporter(self) -> None:
        """Interrupt the speed-reporter loop if it is still running.

        :meth:`put` stops it on success; a *failed* upload leaves it
        alive, so service wrappers call this in a ``finally`` to keep the
        schedule drainable.
        """
        if self._reporter.is_alive:
            self._reporter.interrupt("client stopped")

    # ------------------------------------------------------------------
    def put(self, path: str, size: int) -> ProcessGenerator:
        """Upload ``size`` bytes to ``path`` (returns a WriteResult)."""
        env = self.env
        namenode = self.deployment.namenode
        hdfs_cfg = self.config.hdfs
        smarth_cfg = self.config.smarth
        start = env.now
        # Ask the deployment policy for this upload's knobs (DESIGN.md
        # §12).  The default policy returns the identity tuning, leaving
        # the configured threshold and pipeline cap untouched.
        policy = self.deployment.policy
        tuning = policy.tuning_for(self.name)
        self._tuning = tuning
        if tuning.local_opt_threshold is not None:
            self.local_opt.threshold = tuning.local_opt_threshold
        tracer = self.deployment.tracer
        self._trace_upload = tracer.begin(
            "upload", f"client:{self.name}", f"upload:{path}", start,
            size=size, system=self.system,
        )

        yield from namenode.create_file(self.name, path)

        plans, production = start_producer(env, self.node, size, hdfs_cfg)

        cap = (
            tuning.max_pipelines
            if tuning.max_pipelines is not None
            else smarth_cfg.pipeline_cap(
                self.deployment.live_datanode_count(), hdfs_cfg.replication
            )
        )
        slots = Resource(env, capacity=cap)
        # §IV-C: the first datanode buffers one full block.
        buffer_bytes = hdfs_cfg.block_size
        all_pipelines: list[SmarthPipeline] = []

        for plan in plans:
            slot = slots.request()
            # A failed background pipeline keeps its slot until it is
            # recovered, and only this loop recovers: wait for either.
            while True:
                yield race(env, slot, self._error_flag)
                yield from self._drain_errors(buffer_bytes)
                if slot.triggered:
                    break
            yield from self._wait_for_headroom(buffer_bytes)

            pipeline = yield from self._open_new_pipeline(
                path, BlockProgress(plan, production), slot, buffer_bytes
            )
            self._active.add(pipeline)
            all_pipelines.append(pipeline)
            self._max_concurrent = max(self._max_concurrent, len(self._active))

            # Stream the whole block to the first datanode, then wait for
            # the FNFA before requesting the next block (§III-A step 3).
            yield from self._stream_pipeline(pipeline, buffer_bytes)
            yield from self._await_fnfa(pipeline, buffer_bytes)

            pipeline.state = PipelineState.BACKGROUND
            self._arm_watcher(pipeline)

        # §III-A step 5: wait until the pipeline set is empty.
        yield from self._drain_all(buffer_bytes)

        yield from namenode.complete_file(self.name, path)
        if self._reporter.is_alive:
            self._reporter.interrupt("upload finished")
        tracer.end(self._trace_upload, env.now)

        policy.observe_upload(self.name, path, size, env.now - start, tuning)
        return WriteResult(
            path=path,
            size=size,
            start=start,
            end=env.now,
            n_blocks=len(plans),
            system=self.system,
            pipelines=[p.targets for p in all_pipelines],
            max_concurrent_pipelines=self._max_concurrent,
            recoveries=self._recoveries,
        )

    # ------------------------------------------------------------------
    def _busy_datanodes(self, exclude: Optional[SmarthPipeline] = None) -> set[str]:
        """Datanodes locked by live pipelines (§IV-C disjointness)."""
        busy: set[str] = set()
        for pipeline in self._active:
            if pipeline is exclude or pipeline.state is PipelineState.DONE:
                continue
            busy.update(pipeline.targets)
        return busy

    def _wait_for_headroom(self, buffer_bytes: int) -> ProcessGenerator:
        """Hold back until a full-width pipeline can be placed.

        Algorithm 1 recomputes ``n = num / repli`` per request; when
        failures shrink the pool (dead nodes are blacklisted), opening a
        degraded pipeline would silently under-replicate the block.
        Instead wait for a live pipeline to release its datanodes.
        """
        replication = self.config.hdfs.replication
        total = self._all_datanodes()
        while self._active:
            available = total - self._busy_datanodes() - self._blacklist
            if len(available) >= replication:
                return
            live = [
                p for p in self._active if p.state is not PipelineState.DONE
            ]
            if not live:
                return
            yield self.env.any_of([p.done for p in live] + [self._error_flag])
            yield from self._drain_errors(buffer_bytes)

    def _open_new_pipeline(
        self, path: str, progress: BlockProgress, slot, buffer_bytes: int
    ) -> ProcessGenerator:
        """addBlock + Algorithm 2 reorder + build the receiver chain."""
        namenode = self.deployment.namenode
        plan = progress.plan
        excluded = self._busy_datanodes() | self._blacklist
        result = yield from namenode.add_block(
            self.name, path, plan.size, excluded=excluded
        )
        targets = self.local_opt.reorder(result.targets)
        pipeline = SmarthPipeline(
            self.env, progress, result.block, targets, slot
        )
        pipeline.trace_block = self.deployment.tracer.begin(
            "block", f"client:{self.name}", f"b{result.block.block_id}",
            self.env.now, parent=self._trace_upload, size=plan.size,
        )
        self.deployment.metrics.count("blocks_total")
        while True:
            try:
                yield from self._build_streams(pipeline, buffer_bytes)
            except DatanodeDead as dead:
                # addBlock handed out a node that crashed before the
                # namenode noticed (heartbeat lag): blacklist it and
                # replace it via Algorithm 3, keeping the same block.
                self._recoveries += 1
                self._blacklist.add(dead.datanode)
                excluded = self._busy_datanodes(exclude=pipeline) | self._blacklist
                new_block, new_targets = yield from recover_pipeline(
                    self.deployment,
                    self.name,
                    pipeline.block,
                    pipeline.targets,
                    dead.datanode,
                    0,
                    excluded,
                    trace_parent=pipeline.trace_block,
                )
                pipeline.rebind_block(new_block, new_targets)
                continue
            break
        pipeline.started_at = self.env.now
        self.deployment.metrics.gauge("pipelines_live", 1)
        return pipeline

    def _build_streams(
        self, pipeline: SmarthPipeline, buffer_bytes: int
    ) -> ProcessGenerator:
        """Open receivers + responder for the pipeline's current targets."""
        tracer = self.deployment.tracer
        pipeline.trace_attempt = tracer.begin(
            "pipeline", f"client:{self.name}", f"b{pipeline.block.block_id}",
            self.env.now, parent=pipeline.trace_block,
            targets=pipeline.targets,
        )
        try:
            handle = self.deployment.open_pipeline(
                pipeline.block,
                pipeline.targets,
                self.node,
                want_fnfa=not pipeline.fnfa_received,
                buffer_bytes=buffer_bytes,
                initial_bytes=pipeline.progress.acked_bytes,
            )
        except DatanodeDead:
            tracer.end(pipeline.trace_attempt, self.env.now, aborted=True)
            pipeline.trace_attempt = 0
            raise
        yield from self.network.connection_setup(len(pipeline.targets))
        responder = PacketResponder(self.env, pipeline.block, handle.ack_in)
        pipeline.bind(handle, responder)

    # ------------------------------------------------------------------
    def _stream_pipeline(
        self, pipeline: SmarthPipeline, buffer_bytes: int
    ) -> ProcessGenerator:
        """Send every pending packet of the pipeline's block."""
        while True:
            status, failed = yield from self._send_seqs(
                pipeline, pause=self._error_flag
            )
            if status is SENT:
                pipeline.fully_streamed = True
                pipeline.trace_ack = self.deployment.tracer.begin(
                    "ack", f"client:{self.name}",
                    f"b{pipeline.block.block_id}",
                    self.env.now, parent=pipeline.trace_attempt,
                )
                return
            if status is FAILED:
                self._enqueue_error(pipeline, failed)
            yield from self._drain_errors(buffer_bytes)

    def _send_seqs(
        self, pipeline: SmarthPipeline, pause: Optional[Event] = None
    ) -> ProcessGenerator:
        """One transmission attempt.  Returns (status, failed_datanode).

        ``pause`` is the error flag while the block streams (Algorithm 4
        line 1), and ``None`` when resending *inside* an error drain: the
        flag is already triggered for the failure being serviced and must
        not pause the resend.  A packet train the pause held mid-block
        (``progress.held``) goes back to ``send_block``, which resumes it.
        """
        progress = pipeline.progress
        train = progress.held
        if train is None and not progress.taken:
            # Steady-state fast path: hand the whole block to one packet
            # train (see repro.hdfs.train).
            train = plan_train(
                self.deployment,
                self.node,
                pipeline.handle,
                pipeline.responder,
                progress,
            )
        return (
            yield from send_block(
                self, pipeline.handle, pipeline.responder, progress,
                pipeline.trace_attempt, train, pause,
            )
        )

    def _await_fnfa(
        self, pipeline: SmarthPipeline, buffer_bytes: int
    ) -> ProcessGenerator:
        """Block until the first datanode confirms the whole block."""
        env = self.env
        tracer = self.deployment.tracer
        t_fnfa = tracer.begin(
            "fnfa_wait", f"client:{self.name}",
            f"b{pipeline.block.block_id}:fnfa",
            env.now, parent=pipeline.trace_block,
        )
        while not pipeline.fnfa_received:
            handle = pipeline.handle
            if handle.fnfa_in is None:
                tracer.end(t_fnfa, env.now, aborted=True)
                return  # FNFA already consumed on a previous handle
            fnfa_get = handle.fnfa_in.get()
            yield race(env, fnfa_get, handle.error, self._error_flag)

            if fnfa_get.triggered:
                fnfa = fnfa_get.value
                pipeline.fnfa_received = True
                self.deployment.metrics.observe(
                    "fnfa_latency", fnfa.finished_at - pipeline.started_at
                )
                if not pipeline.skip_speed_record:
                    self.records.record(
                        SpeedSample(
                            datanode=fnfa.datanode,
                            nbytes=pipeline.plan.size,
                            duration=fnfa.finished_at - pipeline.started_at,
                            at=env.now,
                        )
                    )
                tracer.end(t_fnfa, env.now, datanode=fnfa.datanode)
                return
            if handle.error.triggered:
                self._enqueue_error(pipeline, handle.error.value)
            yield from self._drain_errors(buffer_bytes)
        tracer.end(t_fnfa, env.now)

    # ------------------------------------------------------------------
    def _arm_watcher(self, pipeline: SmarthPipeline) -> None:
        """Watch a background pipeline for completion or failure."""
        # Bind the attempt now: a recovery can tear it down (dropping the
        # pipeline's responder) before the watcher first runs.
        pipeline.watcher = self.env.process(
            self._watch(pipeline, pipeline.responder, pipeline.handle),
            name=f"watch:b{pipeline.block.block_id}",
        )

    def _watch(
        self,
        pipeline: SmarthPipeline,
        responder: PacketResponder,
        handle: PipelineHandle,
    ) -> ProcessGenerator:
        try:
            yield race(self.env, responder.block_done, handle.error)
            if responder.block_done.triggered:
                self._complete(pipeline)
            else:
                self._enqueue_error(pipeline, handle.error.value)
        except Interrupt:
            return

    def _complete(self, pipeline: SmarthPipeline) -> None:
        """All ACKs in: free the datanodes and the pipeline slot."""
        pipeline.mark_done()
        self._active.discard(pipeline)
        pipeline.slot.cancel()
        self.deployment.journal.emit(
            self.env.now,
            "pipeline_done",
            f"block:{pipeline.block.block_id}",
            client=self.name,
        )
        tracer = self.deployment.tracer
        now = self.env.now
        tracer.end(pipeline.trace_ack, now)
        tracer.end(pipeline.trace_attempt, now)
        tracer.end(pipeline.trace_block, now)
        self.deployment.metrics.gauge("pipelines_live", -1)

    def _enqueue_error(self, pipeline: SmarthPipeline, failed: str) -> None:
        """Algorithm 4: add the pipeline to the error pipeline set."""
        if failed:
            self._blacklist.add(failed)
        if pipeline not in self._error_list:
            self._error_list.append(pipeline)
        if not self._error_flag.triggered:
            self._error_flag.succeed()

    def _drain_errors(self, buffer_bytes: int) -> ProcessGenerator:
        """Algorithm 4 lines 3-6: recover every pipeline in the error set."""
        while self._error_list:
            pipeline = self._error_list.pop(0)
            if pipeline.state is PipelineState.DONE:
                continue
            self._recoveries += 1
            failed = (
                pipeline.handle.error.value
                if pipeline.handle.error.triggered
                else None
            )
            pipeline.teardown()
            tracer = self.deployment.tracer
            tracer.end(pipeline.trace_ack, self.env.now, aborted=True)
            tracer.end(pipeline.trace_attempt, self.env.now, aborted=True)
            pipeline.trace_ack = 0
            pipeline.trace_attempt = 0

            excluded = self._busy_datanodes(exclude=pipeline) | self._blacklist
            new_block, new_targets = yield from recover_pipeline(
                self.deployment,
                self.name,
                pipeline.block,
                pipeline.targets,
                failed or "",
                pipeline.progress.acked_bytes,
                excluded,
                trace_parent=pipeline.trace_block,
            )
            pipeline.rebind_block(new_block, new_targets)
            try:
                yield from self._build_streams(pipeline, buffer_bytes)
            except DatanodeDead as dead:
                # The replacement crashed before we could connect: loop
                # the pipeline back through the error set with the dead
                # node blacklisted.
                self._enqueue_error(pipeline, dead.datanode)
                continue

            if pipeline.fully_streamed:
                # The client had finished streaming this block before the
                # failure: resend the un-ACKed tail now (Algorithm 4 line
                # 7, "start transferring the interrupted block").
                yield from self._resend_background(pipeline)
                if pipeline.state is PipelineState.BACKGROUND:
                    self._arm_watcher(pipeline)
            # Not-yet-fully-streamed pipelines are resent by their
            # _stream_pipeline loop after this drain returns.
        # Reset the wake-up flag for the next failure.
        self._error_flag = self.env.event()

    def _resend_background(self, pipeline: SmarthPipeline) -> ProcessGenerator:
        status, failed = yield from self._send_seqs(pipeline)
        if status is FAILED:
            # The rebuilt pipeline failed too: recurse via the set.
            self._enqueue_error(pipeline, failed)
            return
        pipeline.trace_ack = self.deployment.tracer.begin(
            "ack", f"client:{self.name}", f"b{pipeline.block.block_id}",
            self.env.now, parent=pipeline.trace_attempt,
        )

    def _drain_all(self, buffer_bytes: int) -> ProcessGenerator:
        """Wait until every pipeline is DONE, recovering stragglers."""
        while True:
            yield from self._drain_errors(buffer_bytes)
            live = [p for p in self._active if p.state is not PipelineState.DONE]
            if not live:
                return
            events = [p.done for p in live] + [self._error_flag]
            yield self.env.any_of(events)
