"""Client-side state of one SMARTH pipeline (§III-A).

Each live pipeline owns its ACK queue and PacketResponder (step 4: "After
creating a pipeline, we create an ACK queue and a PacketResponder thread
for it").  The :class:`SmarthPipeline` bundles that per-pipeline state —
the block's :class:`~repro.hdfs.client.send.BlockProgress`, the current
:class:`~repro.hdfs.deployment.PipelineHandle` (which changes across
recoveries), FNFA bookkeeping and the pipeline-slot lease.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..hdfs.client.responder import PacketResponder
from ..hdfs.client.send import BlockProgress
from ..hdfs.deployment import PipelineHandle
from ..hdfs.protocol import Block
from ..sim import Environment, Event, Process, Request

__all__ = ["PipelineState", "SmarthPipeline"]


class PipelineState(Enum):
    #: The client is still streaming this block to the first datanode.
    STREAMING = "streaming"
    #: FNFA received; replication continues without the client.
    BACKGROUND = "background"
    #: All ACKs received; datanodes and slot released.
    DONE = "done"


class SmarthPipeline:
    """One block's pipeline as the client sees it."""

    def __init__(
        self,
        env: Environment,
        progress: BlockProgress,
        block: Block,
        targets: tuple[str, ...],
        slot: Request,
    ):
        self.env = env
        self.plan = progress.plan
        self.block = block
        self.targets = targets
        self.slot = slot

        self.state = PipelineState.STREAMING
        self.handle: Optional[PipelineHandle] = None
        self.responder: Optional[PacketResponder] = None
        self.watcher: Optional[Process] = None

        #: Taken, acknowledged and sent counts across attempts.  A
        #: pause to service another pipeline's failure resumes after the
        #: packets already sent on the current handle (the pipeline is
        #: healthy; duplicates would corrupt it).
        self.progress = progress

        self.fnfa_received = False
        #: True once every packet of the block has been transmitted at
        #: least once; from then on error recovery owns retransmission.
        self.fully_streamed = False
        #: Set when a recovery makes the FNFA timing meaningless.
        self.skip_speed_record = False
        self.started_at: float = env.now
        #: Fires (with no value) when the pipeline reaches DONE.
        self.done: Event = env.event()

        #: Open span ids on the client tracer (0 when tracing is off):
        #: the block span (whole-block lifetime), the current pipeline
        #: attempt, and the current ack-wait span.
        self.trace_block: int = 0
        self.trace_attempt: int = 0
        self.trace_ack: int = 0

    # ------------------------------------------------------------------
    def bind(self, handle: PipelineHandle, responder: PacketResponder) -> None:
        """Attach a (re)built pipeline handle and its responder."""
        self.handle = handle
        self.responder = responder

    def rebind_block(self, block: Block, targets: tuple[str, ...]) -> None:
        """Adopt the recovered block (new generation) and targets."""
        self.block = block
        self.targets = targets
        self.skip_speed_record = True

    def teardown(self) -> None:
        """Stop the current attempt's machinery (before recovery).

        Idempotent: a rebuild that fails before :meth:`bind` leaves the
        torn-down attempt in place, and the next recovery tears it down
        again without folding its ACKs twice.
        """
        responder = self.responder
        self.responder = None
        if responder is not None:
            self.progress.end_attempt(responder)
        if self.watcher is not None and self.watcher.is_alive:
            self.watcher.interrupt("pipeline recovery")
        self.watcher = None
        if responder is not None:
            responder.stop()
        if self.handle is not None:
            self.handle.teardown()

    def mark_done(self) -> None:
        self.state = PipelineState.DONE
        if not self.done.triggered:
            self.done.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SmarthPipeline block={self.block.block_id} {self.state.value} "
            f"targets={self.targets}>"
        )
