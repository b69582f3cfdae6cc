"""The client-side PacketResponder (§II step 4).

One responder watches one pipeline's ACK stream.  The streamer appends
every sent packet to the responder's ACK queue; the responder removes
packets as their ACKs arrive and fires ``block_done`` after the last
packet of the block is acknowledged.  Its loop starts with the first
``packet_sent``: under a packet train nothing is sent packet by packet,
and the train settles ``block_done`` and the counts itself.  On pipeline
failure the responder is stopped and its queue is dropped with the
pipeline: the client folds the acknowledged prefix (``acked_count``) into
its :class:`~repro.hdfs.client.send.BlockProgress` and resends every other
packet it has taken, from the block's plan (Algorithm 3 step 3), not from
this queue.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ...sim import Environment, Event, Interrupt, Process, ProcessGenerator, Store
from ..protocol import Ack, Block, Packet

__all__ = ["PacketResponder"]


class PacketResponder:
    """Consumes ACKs for one block's pipeline."""

    def __init__(self, env: Environment, block: Block, ack_in: Store):
        self.env = env
        self.block = block
        self.ack_in = ack_in
        #: Sent-but-unacknowledged packets, in send order.
        self.ack_queue: deque[Packet] = deque()
        #: Fires (with the block) when the last packet's ACK arrives.
        self.block_done: Event = env.event()
        self.acked_bytes = 0
        self.acked_count = 0
        #: The ACK loop, spawned by the first :meth:`packet_sent`.
        self._proc: Optional[Process] = None

    def packet_sent(self, packet: Packet) -> None:
        """Streamer bookkeeping: ``packet`` is now awaiting its ACK."""
        self.ack_queue.append(packet)
        if self._proc is None:
            self._proc = self.env.process(
                self._run(), name=f"responder:b{self.block.block_id}"
            )

    def stop(self) -> None:
        """Tear the responder down (pipeline error or teardown)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("responder stopped")

    def _run(self) -> ProcessGenerator:
        # Every ACK answers this queue's head: each pipeline attempt has a
        # fresh ``ack_in`` that only its first receiver feeds, that hop
        # relays in its inbox order, and an ACK waits for a disk write
        # that ends after the packet's send.
        try:
            while True:
                ack: Ack = yield self.ack_in.get()
                assert ack.block_id == self.block.block_id, ack
                assert self.ack_queue, f"{ack} before any send"
                expected = self.ack_queue.popleft()
                assert ack.seq == expected.seq, (ack, expected.seq)
                self.acked_bytes += expected.size
                self.acked_count += 1
                if expected.is_last:
                    if not self.block_done.triggered:
                        self.block_done.succeed(self.block)
                    return
        except Interrupt:
            return
