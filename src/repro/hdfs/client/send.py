"""Block send: the one transmission path of both write clients (§II steps 3–4).

:func:`send_block` sends one block's packets to the pipeline's first
datanode, either as the packet train the caller planned or packet by
packet, and reports :data:`SENT`, :data:`PAUSED` or :data:`FAILED`.
``HdfsClient`` then waits for every ACK (stop-and-wait); ``SmarthClient``
waits only for the FNFA, and pauses between packets when another pipeline
fails (Algorithm 4 line 1).  A block's progress across attempts is three
counts in :class:`BlockProgress`, and its packets are taken from the
file's :class:`~repro.hdfs.client.output_stream.Production`.

The per-packet path delivers each packet in three steps: reserve a buffer
token, run the analytic network transfer, hand the packet to the
receiver's inbox.  The steps run inside the client's own generator, each
raced against the pipeline's error event, so a packet costs no spawned
process (init event, token round-trips, termination event) — at a
million packets per experiment that would be the dominant allocation
churn.  Downstream hops use the forwarder's own send,
:meth:`repro.hdfs.datanode.BlockReceiver.send_in`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...sim import Environment, Event, ProcessGenerator, race

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...cluster.node import Node
    from ...net.transport import Network
    from ..deployment import PipelineHandle
    from ..protocol import Packet
    from ..train import PacketTrain
    from .output_stream import BlockPlan, Production
    from .responder import PacketResponder

__all__ = [
    "BlockProgress",
    "FAILED",
    "PAUSED",
    "SENT",
    "send_block",
    "send_packet_inline",
]

#: Every packet of the block reached the first datanode.
SENT = "sent"
#: Stopped between packets because ``pause`` fired; the pipeline is healthy.
PAUSED = "paused"
#: The pipeline failed; the failed datanode comes with it.
FAILED = "failed"


class BlockProgress:
    """One block's transmission state across pipeline attempts.

    The client takes packets from ``production`` in sequence order, the
    responder pops ACKs only from the head of its queue and the client
    sends in sequence order, so every state is a prefix: packets ``[0,
    taken)`` are taken from the data queue, ``[0, acked)`` are
    acknowledged by the whole pipeline, and ``[acked, acked + sent)``
    went out on the current handle.  Recovery resends from the plan
    without re-charging production time.
    """

    __slots__ = ("plan", "production", "taken", "acked", "sent", "held")

    def __init__(self, plan: "BlockPlan", production: "Production"):
        self.plan = plan
        self.production = production
        self.taken = 0
        self.acked = 0
        self.sent = 0
        #: The packet train paused mid-block by Algorithm 4 line 1, which
        #: the next send on the same handle resumes; ``None`` otherwise.
        self.held: Optional["PacketTrain"] = None

    @property
    def acked_bytes(self) -> int:
        return sum(self.plan.packet_sizes[: self.acked])

    def end_attempt(self, responder: "PacketResponder") -> None:
        """Fold the failed attempt's acknowledged prefix in (Algorithm 3
        step 2); everything after it is resent on the next handle."""
        self.acked += responder.acked_count
        self.sent = 0


def send_block(
    client,
    handle: "PipelineHandle",
    responder: "PacketResponder",
    progress: BlockProgress,
    t_attempt: int,
    train: Optional["PacketTrain"],
    pause: Optional[Event] = None,
    **span_args: object,
) -> ProcessGenerator:
    """Send the block's unsent packets; returns ``(status, failed)``.

    With a ``train`` the whole block goes as one analytic packet train,
    and this resumes at the last packet's first-hop arrival
    (``train.sent``); the train keeps conducting the downstream hops and
    the ACK walk, and settles the responder at the block-done time.
    Otherwise packets go one by one from ``progress.acked +
    progress.sent``, and a triggered ``pause`` stops the loop after the
    packet that just landed.

    A train pauses where that loop would (Algorithm 4 line 1): when
    ``pause`` fires mid-block, :meth:`PacketTrain.hold` stops the block
    after the row whose first-hop send is in flight, and this returns
    :data:`PAUSED` at that row's landing, leaving the held train on
    ``progress.held``.  A row landing at the instant the flag goes up
    counts as landed: the loop checks the flag in that row's transfer
    timer event, and a kill raises it only in the later pipeline-error
    event.  The rows already sent keep flowing downstream while the
    client services the other pipeline; the next send on this handle
    passes the held train back as ``train`` and resumes it.  A flag
    already up when the send begins still lets one row go.
    Packets not yet taken are taken from production on the way: the
    per-packet loop waits only for a packet not yet produced, and a
    train takes its block analytically.  ``span_args`` go on the
    client's ``stream`` span.
    """
    env = client.env
    tracer = client.deployment.tracer
    t_stream = tracer.begin(
        "stream", f"client:{client.name}", f"b{handle.block.block_id}",
        env.now, parent=t_attempt, **span_args,
    )
    if train is not None:
        if progress.held is train:
            progress.held = None
            train.resume()
        else:
            train.start()
        paused = False
        if pause is not None:
            if not pause.triggered:
                yield race(env, train.sent, handle.error, pause)
            if pause.triggered and not handle.error.triggered:
                paused = train.hold(env.now)
        yield race(env, train.sent, handle.error)
        progress.sent = train.sent_count
        if not train.sent.triggered:
            # The error settle already ran (synchronously, inside the
            # error event's callbacks) and took what a per-packet sender
            # would have.  That sender, parked on production, observes
            # the error only once its packet is produced.
            last_take = progress.production.last_take
            if last_take > env.now:
                yield env.timeout_at(last_take)
            tracer.end(t_stream, env.now, aborted=True)
            return FAILED, handle.error.value
        if paused:
            if train.held:
                progress.held = train
            tracer.end(t_stream, env.now, paused=True)
            return PAUSED, None
        tracer.end(t_stream, env.now)
        return SENT, None

    plan = progress.plan
    first = handle.receivers[0]
    for seq in range(progress.acked + progress.sent, plan.n_packets):
        if seq == progress.taken:
            yield from progress.production.take(env, plan.first + seq)
            progress.taken += 1
        packet = plan.packet(seq)
        failed = yield from send_packet_inline(
            env, client.network, client.node, first, packet, handle.error
        )
        if failed is not None:
            tracer.end(t_stream, env.now, aborted=True)
            return FAILED, failed
        progress.sent += 1
        responder.packet_sent(packet)
        if pause is not None and pause.triggered:
            # Algorithm 4 line 1: another pipeline failed — stop the
            # current block transfer after the packet that just landed.
            tracer.end(t_stream, env.now, paused=True)
            return PAUSED, None
    tracer.end(t_stream, env.now)
    return SENT, None


def send_packet_inline(
    env: Environment,
    network: "Network",
    src: "Node",
    receiver,
    packet: "Packet",
    error,
) -> ProcessGenerator:
    """One packet's single-hop send, inlined into the client's loop.

    A send on an already-failed pipeline commits nothing: no buffer
    token, no channel quote, no receiver loops.  On an error while the
    send is in flight the current step is abandoned: a pending token
    grant goes to waste and an unfinished transfer never applies its
    byte counters or flow sample (its channel quotes stay committed, like
    any wire time already spent).  Returns the failed datanode's name, or
    ``None`` once the packet is in the receiver's inbox.
    """
    if error.triggered:
        return error.value
    receiver.start()
    put = receiver._buffer_tokens.put(packet.seq)
    if not put.processed:
        yield race(env, put, error)
        # `processed`, not `triggered`: the send goes on exactly when the
        # token grant is *processed*; a grant still in the queue when
        # the error landed is wasted.
        if error.triggered and not put.processed:
            return error.value
    receiver.max_buffered = max(
        receiver.max_buffered, len(receiver._buffer_tokens)
    )
    done, finish = network.transfer_begin(src, receiver.host, packet.size)
    yield race(env, done, error)
    if error.triggered and not done.processed:
        return error.value
    finish()
    yield receiver.inbox.put(packet)
    if error.triggered:
        # Same-instant tie: the packet was delivered, but the pipeline
        # failed at the same instant and the client reports the failure.
        return error.value
    return None
