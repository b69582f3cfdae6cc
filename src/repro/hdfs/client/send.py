"""Single-hop packet send, inlined into the baseline client's streamer.

A write client delivers each packet to the pipeline's first datanode in
three steps: reserve a buffer token, run the analytic network transfer,
hand the packet to the receiver's inbox.  Spawning a process per packet
for this costs an init event, token round-trips and a
process-termination event — at a million packets per experiment that is
the dominant allocation churn.  This helper runs the identical timeline
inside ``DataStreamer``'s generator, racing each step against the
pipeline's error event exactly like an interrupted spawned send would.
(``SmarthClient`` spawns one ``send`` process per packet instead.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

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
    """One packet's single-hop send, inlined into the streamer.

    Identical timeline to spawning a ``send_in`` process and racing it
    against ``error`` — token reservation, analytic transfer, inbox
    hand-off — without the per-packet process (init event, token
    round-trips, process-termination event).  On a pipeline error the
    in-flight step is abandoned exactly like an interrupted send: a
    pending token grant goes to waste and an unfinished transfer never
    applies its byte counters or flow sample.  Returns the failed
    datanode's name, or ``None``.
    """
    if error.triggered:
        # The error landed while we were parked on the data queue; the
        # spawned send would have been interrupted before its init
        # event ran — no token put, no channel quotes.
        return error.value
    put = receiver._buffer_tokens.put(packet.seq)
    if not put.processed:
        yield race(env, put, error)
        # `processed`, not `triggered`: the spawned send resumed (and
        # committed its channel quotes) exactly when the token grant
        # was *processed*; a grant still in the queue when the error
        # landed was wasted on a dying process.
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
        # Same-instant tie: the spawned send had already delivered the
        # packet, but the streamer still reported the failure.
        return error.value
    return None
