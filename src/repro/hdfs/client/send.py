"""Single-hop packet send: the per-packet send of both write clients.

``HdfsClient._stream_block`` and ``SmarthClient._send_seqs`` deliver each
packet to the pipeline's first datanode in three steps: reserve a buffer
token, run the analytic network transfer, hand the packet to the
receiver's inbox.  The steps run inside the client's own generator, each
raced against the pipeline's error event, so a packet costs no spawned
process (init event, token round-trips, termination event) — at a
million packets per experiment that would be the dominant allocation
churn.  Downstream hops use the forwarder's own send,
:meth:`repro.hdfs.datanode.BlockReceiver.send_in`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...sim import Environment, ProcessGenerator, race

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...cluster.node import Node
    from ...net.transport import Network
    from ..protocol import Packet

__all__ = ["send_packet_inline"]


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
    token, no channel quote.  On an error while the send is in flight the
    current step is abandoned: a pending token grant goes to waste and an
    unfinished transfer never applies its byte counters or flow sample
    (its channel quotes stay committed, like any wire time already spent).
    Returns the failed datanode's name, or ``None`` once the packet is in
    the receiver's inbox.
    """
    if error.triggered:
        return error.value
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
