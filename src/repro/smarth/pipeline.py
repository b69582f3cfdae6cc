"""Client-side state of one SMARTH pipeline (§III-A).

Each live pipeline owns its ACK queue and PacketResponder (step 4: "After
creating a pipeline, we create an ACK queue and a PacketResponder thread
for it").  The :class:`SmarthPipeline` bundles that per-pipeline state —
the produced packets, acknowledged prefix, the current
:class:`~repro.hdfs.deployment.PipelineHandle` (which changes across
recoveries), FNFA bookkeeping and the pipeline-slot lease.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ..hdfs.client.output_stream import BlockPlan
from ..hdfs.client.responder import PacketResponder
from ..hdfs.deployment import PipelineHandle
from ..hdfs.protocol import Block, Packet
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
        plan: BlockPlan,
        block: Block,
        targets: tuple[str, ...],
        slot: Request,
    ):
        self.env = env
        self.plan = plan
        self.block = block
        self.targets = targets
        self.slot = slot

        self.state = PipelineState.STREAMING
        self.handle: Optional[PipelineHandle] = None
        self.responder: Optional[PacketResponder] = None
        self.watcher: Optional[Process] = None

        #: Packets produced so far, keyed by sequence number (recovery
        #: resends from here without re-charging production time).
        self.produced: dict[int, Packet] = {}
        #: Sequence numbers acknowledged by the *whole* pipeline.
        self.acked_seqs: set[int] = set()
        #: Sequence numbers already transmitted on the *current* handle —
        #: a pause to service another pipeline's failure must not resend
        #: them (the pipeline is healthy; duplicates would corrupt it).
        self.sent_seqs: set[int] = set()
        #: The cumulative send order on the current handle (ACKs arrive
        #: as a prefix of this list).
        self.attempt_order: list[int] = []

        self.fnfa_received = False
        #: True once every packet of the block has been transmitted at
        #: least once; from then on error recovery owns retransmission.
        self.fully_streamed = False
        #: Set when a recovery makes the FNFA timing meaningless.
        self.skip_speed_record = False
        self.started_at: float = env.now
        self.recoveries = 0
        #: Fires when the pipeline reaches DONE.
        self.done: Event = env.event()

        #: Open span ids on the client tracer (0 when tracing is off):
        #: the block span (whole-block lifetime), the current pipeline
        #: attempt, and the current ack-wait span.
        self.trace_block: int = 0
        self.trace_attempt: int = 0
        self.trace_ack: int = 0

    # ------------------------------------------------------------------
    @property
    def acked_bytes(self) -> int:
        return sum(self.produced[s].size for s in self.acked_seqs)

    def pending_seqs(self) -> list[int]:
        """Sequence numbers still requiring transmission on this handle."""
        return [
            s
            for s in range(self.plan.n_packets)
            if s not in self.acked_seqs and s not in self.sent_seqs
        ]

    def note_sent(self, seq: int) -> None:
        self.sent_seqs.add(seq)
        self.attempt_order.append(seq)

    def bind(self, handle: PipelineHandle, responder: PacketResponder) -> None:
        """Attach a (re)built pipeline handle and its responder."""
        self.handle = handle
        self.responder = responder
        self.sent_seqs = set()
        self.attempt_order = []

    def fold_acks(self) -> None:
        """Fold the current attempt's acknowledged prefix into state."""
        if self.responder is not None:
            self.acked_seqs.update(
                self.attempt_order[: self.responder.acked_count]
            )

    def rebind_block(self, block: Block, targets: tuple[str, ...]) -> None:
        """Adopt the recovered block (new generation) and targets."""
        self.block = block
        self.targets = targets
        self.recoveries += 1
        self.skip_speed_record = True

    def teardown(self) -> None:
        """Stop the current attempt's machinery (before recovery)."""
        self.fold_acks()
        if self.watcher is not None and self.watcher.is_alive:
            self.watcher.interrupt("pipeline recovery")
        self.watcher = None
        if self.responder is not None:
            self.responder.stop()
        if self.handle is not None:
            self.handle.teardown()

    def mark_done(self) -> None:
        self.state = PipelineState.DONE
        if not self.done.triggered:
            self.done.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SmarthPipeline block={self.block.block_id} {self.state.value} "
            f"targets={self.targets}>"
        )
