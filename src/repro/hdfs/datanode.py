"""Datanode service: block receivers, packet forwarding, ACK relay.

Each block write opens a :class:`BlockReceiver` on every pipeline datanode
(§II step 3).  A receiver:

* admits packets through a **token-based buffer** (flow control: the
  upstream sender reserves buffer space *before* transmitting, exactly
  like TCP windows over a bounded receive buffer).  The buffer is the
  paper's §IV-C first-datanode buffer — one block (64 MB) for SMARTH, a
  few MB of socket buffering for baseline HDFS;
* stores each packet (asynchronous disk write, ``T_w``) as it arrives,
  **independently of forwarding** — so receiving is paced by the upstream
  link, not by slower downstream hops;
* forwards packets downstream from the buffer in a separate loop
  (store-and-forward per packet, like Hadoop's BlockReceiver mirroring),
  releasing buffer space as packets leave;
* relays ACKs client-ward only after *both* its own disk write and the
  downstream ACK for that packet completed — an ACK reaching the client
  proves the whole pipeline stored the packet (§II step 4);
* finalizes the block *locally* once every packet is received and
  written: this is when SMARTH's FNFA fires (§III-A step 3) — crucially
  independent of downstream progress, which is what lets a SMARTH client
  move to the next block while slower replicas trail behind — and when
  ``blockReceived`` is reported to the namenode.

The receive, forward and ACK-relay loops start with the first packet sent
into the hop (:meth:`BlockReceiver.start`).  A block sent as a packet
train never starts them: the train performs their observable actions
itself (see :mod:`repro.hdfs.train`).

Failure model: killing a datanode interrupts its receivers and fires each
affected pipeline's error signal (the socket-reset analogue); peers
touching a dead node fire the same signal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cluster.node import Node
from ..config import HdfsConfig
from ..net.transport import Network
from ..obs import MetricsRegistry, Tracer
from ..sim import (
    Environment,
    Event,
    Interrupt,
    Process,
    ProcessGenerator,
    Resource,
    Store,
)
from .protocol import FNFA, Ack, Block, DatanodeDead, Packet

if TYPE_CHECKING:  # pragma: no cover
    from typing import Callable

    from ..sim import Request
    from .namenode import Namenode
    from .train import PacketTrain

__all__ = ["Datanode", "BlockReceiver", "ReadServe", "trigger_pipeline_error"]


def trigger_pipeline_error(error: Event, failed_datanode: str) -> None:
    """Fire a pipeline's shared error signal exactly once."""
    if not error.triggered:
        error.succeed(failed_datanode)


class BlockReceiver:
    """Per-block receiving state machine on one datanode."""

    def __init__(
        self,
        datanode: "Datanode",
        block: Block,
        ack_out: Optional[Store],
        error: Event,
        buffer_bytes: int,
        fnfa_out: Optional[Store] = None,
        client_node: Optional[Node] = None,
        upstream_node: Optional[Node] = None,
        initial_bytes: int = 0,
        upstream: Optional["BlockReceiver"] = None,
    ):
        self.datanode = datanode
        self.env: Environment = datanode.env
        self.block = block
        #: Where the first hop's ACKs go (the client's ``ack_in``); a later
        #: hop's go to its upstream receiver's ``downstream_acks``.
        self._ack_out = ack_out
        self._upstream = upstream
        self.error = error
        #: The next pipeline hop (None for the tail), set while wiring.
        #: Both links are cleared when the receiver closes or aborts (see
        #: :meth:`_unlink`).
        self.downstream: Optional["BlockReceiver"] = None
        self.fnfa_out = fnfa_out
        self.client_node = client_node
        #: Where our ACKs physically go: the client for the first datanode,
        #: the previous datanode otherwise.
        self.upstream_node = (
            upstream_node if upstream_node is not None else datanode.node
        )

        config = datanode.config
        # Floor of 4 packets: with a coarse simulation granularity the
        # byte-denominated buffer could drop to a single packet, which
        # would serialize receive/forward into stop-and-wait — an artifact
        # of granularity, not of the modelled protocol (real TCP windows
        # always cover several packets).
        self.buffer_capacity = max(4, buffer_bytes // config.packet_size)
        #: High-water mark of buffer occupancy (verifies §IV-C's bound).
        self.max_buffered = 0
        # The per-packet stores (buffer tokens, inbox, forward queue,
        # downstream ACKs, announced writes) are built by :meth:`start`:
        # a block sent as a packet train never touches them.
        self._write_done: dict[int, Event] = {}
        #: Bytes of this block already durable locally before this receiver
        #: opened (non-zero only when a pipeline is rebuilt by recovery).
        self._bytes_received = initial_bytes
        self._finalized = False
        self._acks_done = False
        self._aborted = False

        # Span-granularity tracing: one store/forward/ack span per block
        # per hop, identical in legacy and packet-train mode (the train
        # closes them at the analytically identical times).
        tracer = datanode.tracer
        actor = f"datanode:{datanode.name}"
        bt = f"b{block.block_id}"
        now = self.env.now
        self._trace_store = tracer.begin("store", actor, f"{bt}:store", now)
        self._trace_ack = tracer.begin("ack_relay", actor, f"{bt}:ack", now)
        self._trace_fwd = 0  # opened by set_downstream on non-tail hops

        #: The receive, ACK-relay and forward loops (spawned by
        #: :meth:`start`).
        self._procs: list[Process] = []
        self._started = False
        #: The packet train carrying this block, if any: it holds no
        #: buffer tokens here, so it answers :attr:`buffered_packets`.
        self.train: Optional["PacketTrain"] = None

    # -- public ------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.datanode.name

    @property
    def host(self) -> Node:
        return self.datanode.node

    @property
    def bytes_received(self) -> int:
        return self._bytes_received

    @property
    def buffered_packets(self) -> int:
        """Packets currently occupying buffer space (for buffer tests)."""
        if self.train is not None:
            return self.train.buffered(self)
        if not self._started:
            return 0  # no per-packet send yet: no buffer tokens either
        return len(self._buffer_tokens)

    @property
    def finalized(self) -> bool:
        """True once the block is fully received and stored locally."""
        return self._finalized

    def set_downstream(self, receiver: "BlockReceiver") -> None:
        """Link the next pipeline hop (done while wiring, before any packet
        can arrive — receivers are created head-first by ``open_pipeline``)."""
        self.downstream = receiver
        self._trace_fwd = self.datanode.tracer.begin(
            "forward",
            f"datanode:{self.datanode.name}",
            f"b{self.block.block_id}:forward",
            self.env.now,
        )

    def start(self) -> None:
        """Build the per-packet stores and spawn the receive, ACK-relay and
        forward loops (idempotent).

        Called by the first send into this hop.  Each loop's first step
        is a blocking ``get`` and nothing reaches the receiver before that
        send, so starting them here moves no other event — and a block
        sent as a packet train never builds or starts any of it.  An
        aborted receiver gets its stores but no loops.
        """
        if self._started:
            return
        self._started = True
        env = self.env
        #: Buffer tokens: senders reserve space here before transmitting;
        #: a full buffer blocks the upstream — backpressure (§IV-C).
        self._buffer_tokens: Store = Store(env, capacity=self.buffer_capacity)
        #: Received packets awaiting processing (space already accounted
        #: for by the token the sender holds on our behalf).
        self.inbox: Store = Store(env)
        #: Packets stored locally, awaiting forwarding downstream.
        self._forward_queue: Store = Store(env)
        #: ACKs arriving from the downstream receiver (unused on the tail).
        self.downstream_acks: Store = Store(env)
        self._writes_announced: Store = Store(env)
        if self._aborted:
            return
        label = f"{self.name}:b{self.block.block_id}"
        downstream, upstream = self.downstream, self._upstream
        # The first hop's ACKs go to the client; a later hop's to its
        # upstream's ``downstream_acks``, built by the upstream's start,
        # which precedes any send here.
        ack_out = self._ack_out if upstream is None else upstream.downstream_acks
        self._procs.append(env.process(self._run(), name=f"recv:{label}"))
        self._procs.append(
            env.process(self._ack_loop(downstream, ack_out), name=f"ackr:{label}")
        )
        if downstream is not None:
            self._procs.append(
                env.process(self._forward_loop(downstream), name=f"fwd:{label}")
            )

    def send_in(self, src_node: Node, packet: Packet) -> ProcessGenerator:
        """Upstream-facing: reserve buffer space, transfer, enqueue.

        This is the forwarder's send into the next hop; the clients send
        into the first hop with :func:`repro.hdfs.client.send.send_packet_inline`.
        The buffer token is held until the packet leaves (forwarded, or
        written on the tail).
        """
        self.start()
        yield self._buffer_tokens.put(packet.seq)
        self.max_buffered = max(self.max_buffered, len(self._buffer_tokens))
        yield from self.datanode.network.transfer(src_node, self.host, packet.size)
        yield self.inbox.put(packet)

    def abort(self, failed_datanode: str | None = None) -> None:
        """Tear the receiver down (datanode death or pipeline recovery)."""
        if self._aborted:
            return
        self._aborted = True
        if failed_datanode is not None:
            trigger_pipeline_error(self.error, failed_datanode)
        if self.train is not None:
            self.train.retire_forward(self)
        tracer = self.datanode.tracer
        now = self.env.now
        tracer.end(self._trace_store, now, aborted=True)
        tracer.end(self._trace_fwd, now, aborted=True)
        tracer.end(self._trace_ack, now, aborted=True)
        for proc in self._procs:
            # A receiver loop may abort its own receiver (e.g. on seeing a
            # dead peer); it returns by itself, so never self-interrupt.
            if proc.is_alive and proc is not self.env.active_process:
                proc.interrupt("receiver aborted")
        self._unlink()
        self.datanode._receiver_closed(self)

    # -- internals ----------------------------------------------------------
    def _run(self) -> ProcessGenerator:
        """Receive loop: store locally at link speed, hand to forwarder."""
        try:
            while True:
                packet: Packet = yield self.inbox.get()
                if not self.datanode.node.alive:
                    self.abort(self.name)
                    return
                self._bytes_received += packet.size

                # Analytic disk write: commit the occupancy now, keep the
                # completion event so the ACK relay can await durability.
                write = self.datanode.node.disk.write_event(packet.size)
                self._write_done[packet.seq] = write
                yield self._writes_announced.put(packet)
                yield self._forward_queue.put(packet)

                if packet.is_last:
                    # The disk channel is FIFO, so the last packet's
                    # write landing means the whole block is stored.
                    write.callbacks.append(self.finalize)
                    return
        except Interrupt:
            return

    def _forward_loop(self, downstream: "BlockReceiver") -> ProcessGenerator:
        """Mirror packets downstream, freeing buffer space as they leave."""
        try:
            while True:
                packet: Packet = yield self._forward_queue.get()
                if not downstream.host.alive:
                    self.abort(downstream.name)
                    return
                yield from downstream.send_in(self.host, packet)
                yield self._buffer_tokens.get()  # space freed
                if packet.is_last:
                    self.datanode.tracer.end(self._trace_fwd, self.env.now)
                    return
        except Interrupt:
            return

    def finalize(self, _event: Optional[Event] = None) -> None:
        """The block's last write landed: store complete → FNFA +
        blockReceived.

        Both paths run this at the landing ``W`` of the last write: the
        per-packet receive loop subscribes it to that write's event, and a
        packet train calls it at its ``fin`` milestone.  It is a chain of
        timed callbacks, not a process, and it does **not** wait for
        downstream ACKs — the whole point of SMARTH's FNFA:

        * at ``W``: the ``store`` span, the ``block_stored`` journal line;
        * at ``W`` plus the control delay to the client (the first hop of
          a pipeline that wants one): the FNFA;
        * one control delay to the namenode later (after ``W`` on other
          hops): ``blockReceived``, then the close.

        An abort before ``W`` finalizes nothing; one before the FNFA lands
        cancels the FNFA and the report.  A report already on its way
        still reaches the namenode after an abort, but does not close.
        """
        if self._aborted:
            return
        self._finalized = True
        datanode = self.datanode
        now = self.env.now
        datanode.tracer.end(self._trace_store, now, bytes=self._bytes_received)
        if datanode.namenode is not None:
            datanode.namenode.journal.emit(
                now,
                "block_stored",
                f"block:{self.block.block_id}",
                datanode=self.name,
                bytes=self._bytes_received,
                fnfa=self.fnfa_out is not None,
            )
        if self.fnfa_out is not None and self.client_node is not None:
            delay = datanode.network.control_delay(datanode.node, self.client_node)
            self.env.call_at(now + delay, self._fnfa_landed)
        else:
            self._report()

    def _fnfa_landed(self, _event: Event) -> None:
        if self._aborted:
            return
        assert self.fnfa_out is not None
        self.fnfa_out.put(
            FNFA(
                block_id=self.block.block_id,
                datanode=self.name,
                finished_at=self.env.now,
            )
        )
        self._report()

    def _report(self) -> None:
        """Send blockReceived to the namenode (a control message), then
        close; a dead datanode or one without a namenode only closes."""
        datanode = self.datanode
        namenode = datanode.namenode
        if namenode is None or not datanode.node.alive:
            self._maybe_close()
            return
        block_id, size = self.block.block_id, self._bytes_received

        def landed(_event: Event) -> None:
            namenode.block_received(block_id, datanode.name, size)
            if not self._aborted:
                self._maybe_close()

        delay = datanode.network.control_delay(datanode.node, namenode.node)
        self.env.call_at(self.env.now + delay, landed)

    def _ack_loop(
        self, downstream: Optional["BlockReceiver"], ack_out: Store
    ) -> ProcessGenerator:
        """Relay ACKs client-ward, into ``ack_out``, in packet order.

        Downstream ACKs arrive in packet order too: the next hop relays
        in its own ``_writes_announced`` order, which is its inbox order,
        which is this hop's forward order.
        """
        network: Network = self.datanode.network
        try:
            while True:
                packet: Packet = yield self._writes_announced.get()
                if downstream is not None:
                    ack = yield self.downstream_acks.get()
                    assert ack.seq == packet.seq, (ack.seq, packet.seq)
                write = self._write_done[packet.seq]
                if not write.processed:
                    yield write
                del self._write_done[packet.seq]
                if downstream is None:
                    # Tail node: the packet leaves memory once written.
                    yield self._buffer_tokens.get()

                # Inlined (no process spawn): this runs once per packet per
                # pipeline hop, and a control send is only a latency wait.
                yield from network.send_control(
                    self.datanode.node, self.upstream_node
                )
                yield ack_out.put(
                    Ack(block_id=self.block.block_id, seq=packet.seq)
                )

                if packet.is_last:
                    self.datanode.tracer.end(self._trace_ack, self.env.now)
                    self._acks_done = True
                    self._maybe_close()
                    return
        except Interrupt:
            return

    def _maybe_close(self) -> None:
        if self._finalized and self._acks_done:
            self._unlink()
            self.datanode._receiver_closed(self)

    def _unlink(self) -> None:
        """Drop the links to the neighbouring hops, so a finished
        pipeline's receivers die by reference counting (the loops take
        the links when :meth:`start` spawns them)."""
        self.downstream = None
        self._upstream = None


class ReadServe:
    """One admitted read stream on a datanode (a dataXceiver analogue).

    Created by :meth:`Datanode.open_serve` once a serve slot is granted;
    the holder must call :meth:`close` when the stream ends (successfully
    or not) to free the slot for queued readers.  :meth:`Datanode.kill`
    aborts every open serve, firing its ``on_kill``, and only then closes
    them all, freeing their slots at the instant of death.  The per-chunk
    loop notices the dead node between chunks, after the chunk in flight
    lands; a read train (``on_kill``) records that landing and settles the
    stream there.  When the landing is the kill's own instant, the train
    settles in the replay it schedules from ``on_kill``, so telling every
    stream first puts that replay, and the reader's wake, ahead of the
    grants of the freed slots, as the loop's chunk timer, older than the
    kill's grants, is.
    """

    __slots__ = ("datanode", "block_id", "client", "on_kill", "_request", "_closed")

    def __init__(
        self,
        datanode: "Datanode",
        request: "Request",
        block_id: int,
        client: str,
    ):
        self.datanode = datanode
        self.block_id = block_id
        self.client = client
        #: Optional hook fired when the serving datanode dies mid-stream.
        self.on_kill: Optional["Callable[[], None]"] = None
        self._request = request
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the serve slot (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.datanode._serve_closed(self)

    def abort(self) -> None:
        """Datanode died: notify the stream; :meth:`Datanode.kill` frees
        the slot once every open serve has been notified."""
        if not self._closed and self.on_kill is not None:
            self.on_kill()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<ReadServe {self.datanode.name} b{self.block_id} "
            f"-> {self.client} {state}>"
        )


class Datanode:
    """The datanode service running on one cluster node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        network: Network,
        config: HdfsConfig,
        tracer: Tracer,
        metrics: MetricsRegistry,
    ):
        self.env = env
        self.node = node
        self.network = network
        self.config = config
        self.tracer = tracer
        self.metrics = metrics
        self.namenode: Optional["Namenode"] = None
        #: Open receivers in open order (a dict as an ordered set), so
        #: :meth:`kill` aborts them and monitors walk them deterministically.
        self._active: dict[BlockReceiver, None] = {}
        #: Called after every :meth:`open_receiver` (the invariant
        #: monitor's wake-up hook).
        self.on_receiver_open: Optional["Callable[[], None]"] = None
        #: FIFO serve-slot admission for read streams (the
        #: ``dfs.datanode.max.transfer.threads`` analogue): at most
        #: ``serve_streams`` concurrent readers, the rest queue.
        self._serve_slots = Resource(env, capacity=config.serve_streams)
        self._serving: set[ReadServe] = set()

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def active_receivers(self) -> int:
        return len(self._active)

    @property
    def receivers(self) -> tuple[BlockReceiver, ...]:
        """The currently open receivers (observability for monitors)."""
        return tuple(self._active)

    @property
    def active_serves(self) -> int:
        """Read streams currently holding a serve slot."""
        return len(self._serving)

    @property
    def serve_queue_len(self) -> int:
        """Readers waiting for a serve slot."""
        return self._serve_slots.queue_len

    # -- namenode liaison ----------------------------------------------------
    def register_with(
        self, namenode: "Namenode", start_heartbeat: bool = True
    ) -> None:
        self.namenode = namenode
        namenode.register_datanode(self.name, self.node.rack)
        if start_heartbeat:
            self._start_heartbeats()

    def _start_heartbeats(self) -> None:
        """Beat every interval from now (the namenode's analytic chain)."""
        assert self.namenode is not None
        self.namenode.datanodes.start_beats(
            self.name, self.network.control_delay(self.node, self.namenode.node)
        )

    def stop_heartbeats(self) -> None:
        """Stop heartbeating (checkpoint barriers; no-op if not beating)."""
        if self.namenode is not None:
            self.namenode.datanodes.stop_beats(self.name)

    def register_heartbeats_again(self) -> None:
        """Restart heartbeats after the machine recovers.

        The namenode sees the node as live again on the next beat (its
        liveness is purely heartbeat-driven).
        """
        if self.namenode is not None:
            self._start_heartbeats()

    # -- pipeline participation ------------------------------------------------
    def open_receiver(
        self,
        block: Block,
        ack_out: Optional[Store],
        error: Event,
        fnfa_out: Optional[Store] = None,
        client_node: Optional[Node] = None,
        upstream_node: Optional[Node] = None,
        buffer_bytes: Optional[int] = None,
        initial_bytes: int = 0,
        upstream: Optional[BlockReceiver] = None,
    ) -> BlockReceiver:
        """Start receiving one block; returns the receiver handle.

        The first hop's ACKs go to ``ack_out``; a later hop passes its
        ``upstream`` receiver instead, whose ``downstream_acks`` it feeds.
        """
        if not self.node.alive:
            raise DatanodeDead(self.name)
        receiver = BlockReceiver(
            datanode=self,
            block=block,
            ack_out=ack_out,
            error=error,
            buffer_bytes=buffer_bytes or self.config.block_size,
            fnfa_out=fnfa_out,
            client_node=client_node,
            upstream_node=upstream_node,
            initial_bytes=initial_bytes,
            upstream=upstream,
        )
        self._active[receiver] = None
        if self.on_receiver_open is not None:
            self.on_receiver_open()
        return receiver

    def _receiver_closed(self, receiver: BlockReceiver) -> None:
        self._active.pop(receiver, None)

    # -- read serving --------------------------------------------------------
    def open_serve(self, block_id: int, client: str) -> ProcessGenerator:
        """Admit one read stream; yields until a serve slot is granted.

        Returns a :class:`ReadServe` handle (``serve = yield from
        datanode.open_serve(...)``).  Any admission wait is recorded in
        the ``read.serve_wait`` histogram and as a ``serve_wait`` span, so
        mixed workloads expose datanode serve-queue pressure directly.
        Raises :class:`~repro.hdfs.protocol.DatanodeDead` if the node is
        (or dies while) waiting.
        """
        if not self.node.alive:
            raise DatanodeDead(self.name)
        requested = self.env.now
        request = self._serve_slots.request()
        if not request.processed:
            span = self.tracer.begin(
                "serve_wait",
                f"datanode:{self.name}",
                f"b{block_id}:serve",
                requested,
                client=client,
            )
            yield request
            self.tracer.end(span, self.env.now)
        self.metrics.observe("read.serve_wait", self.env.now - requested)
        if not self.node.alive:
            self._serve_slots.release(request)
            raise DatanodeDead(self.name)
        serve = ReadServe(self, request, block_id, client)
        self._serving.add(serve)
        return serve

    def _serve_closed(self, serve: ReadServe) -> None:
        self._serving.discard(serve)
        self._serve_slots.release(serve._request)

    # -- faults ------------------------------------------------------------------
    def kill(self) -> None:
        """Crash this datanode: stop receivers and signal their pipelines."""
        self.node.fail()
        if self.namenode is not None:
            self.namenode.journal.emit(
                self.env.now,
                "datanode_killed",
                self.name,
                active_receivers=len(self._active),
            )
        for receiver in list(self._active):
            receiver.abort(self.name)
        serves = sorted(self._serving, key=lambda s: (s.block_id, s.client))
        for serve in serves:
            serve.abort()
        for serve in serves:
            serve.close()
        self.stop_heartbeats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Datanode {self.name} active={len(self._active)}>"
