"""The HDFS read path: ``open()`` + block-by-block reads.

The paper evaluates writes, but a credible HDFS substrate must also serve
reads — and the read path is how tests verify that replicas written
through either protocol are actually usable.  Semantics follow Hadoop:

* the client asks the namenode for each block's locations;
* replica selection goes through the deployment-wide
  :meth:`~repro.hdfs.deployment.HdfsDeployment.ranked_replicas` path —
  speed-aware ranking with topology locality as the tie-break (a cold
  speed registry reduces to the classic nearest-replica order);
* each stream is admitted against the serving datanode's bounded serve
  queue (``HdfsConfig.serve_streams``, the
  ``dfs.datanode.max.transfer.threads`` analogue), so concurrent readers
  contend for real dataXceiver capacity, not just for the NIC;
* within a block, reads are chunked at packet granularity with the disk
  read of chunk *i+1* overlapping the network transfer of chunk *i*
  (Hadoop's BlockSender does the same with its transfer buffer).  With
  ``coalesce_reads`` enabled (the default) every stream into a reader
  host rides that host's :class:`~repro.hdfs.train.ReadTrain`, which
  plans them all together — identical timeline, O(1) heap events per
  block — including streams whose source is later killed and streams
  resumed after a kill;
* a replica co-located with the reader is always served by a
  short-circuit local read: a direct disk scan that bypasses connection
  setup, the serve queue and both NICs, like Hadoop's
  ``dfs.client.read.shortcircuit``;
* a source dying mid-stream does not restart the block: the per-chunk
  loop notices the death between chunks, once the chunk in flight has
  landed, and the reader re-ranks the surviving replicas and resumes
  from the next-best one at the exact byte offset already delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...cluster.node import Node
from ...sim import ProcessGenerator
from ..datanode import Datanode, ReadServe
from ..deployment import HdfsDeployment
from ..protocol import Block, DatanodeDead, FileNotFound, HdfsError
from ..train import plan_read_train

__all__ = ["ReadResult", "HdfsReader", "BlockUnavailable"]


class BlockUnavailable(HdfsError):
    """No live replica could serve a block."""


@dataclass
class ReadResult:
    """Outcome of one whole-file read."""

    path: str
    size: int
    start: float
    end: float
    #: (block_id, datanode) pairs actually read from, in block order.
    #: A block resumed after a mid-stream source death records the
    #: replica that completed it.
    sources: list[tuple[int, str]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def throughput(self) -> float:
        return self.size / self.duration if self.duration > 0 else float("inf")


class HdfsReader:
    """Whole-file reader (the ``hdfs get`` counterpart of the writers)."""

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
        self._rng_seed = self.config.seed ^ 0x8EAD

    # ------------------------------------------------------------------
    def get(self, path: str) -> ProcessGenerator:
        """Read all of ``path``; returns a :class:`ReadResult`."""
        namenode = self.deployment.namenode
        start = self.env.now

        yield from namenode._rpc()  # getBlockLocations round trip
        inode = namenode.namespace.get(path)
        if not inode.blocks:
            raise FileNotFound(f"{path} has no blocks")

        result = ReadResult(path=path, size=inode.size, start=start, end=start)
        for block in inode.blocks:
            source = yield from self._read_block(block)
            result.sources.append((block.block_id, source))
            # Popularity feed for replication policies (DESIGN.md §12):
            # the hotspot policy counts these to raise replica targets.
            self.deployment.policy.note_read(block.block_id, source)
        result.end = self.env.now
        return result

    # ------------------------------------------------------------------
    def _candidates(
        self, block: Block, exclude: frozenset[str] = frozenset()
    ) -> list[str]:
        """Live replica holders, best first (see ``ranked_replicas``).

        The tie-break draws from a per-(reader, block) substream rather
        than one shared reader stream, so the candidate order for a block
        does not depend on how many blocks this reader — or an
        interleaved sibling — already read.
        """
        return self.deployment.ranked_replicas(
            block,
            client=self.name,
            node=self.node,
            seed=self._rng_seed,
            exclude=exclude,
        )

    def _read_block(self, block: Block) -> ProcessGenerator:
        """Serve one block in full; returns the replica that finished it.

        Candidates are tried best-first.  A source dying mid-stream
        carries its delivered byte count out via :class:`_SourceDied`;
        the reader re-ranks the survivors and resumes the stream at that
        offset instead of re-reading the block from scratch.
        """
        offset = 0
        failed: set[str] = set()
        last_error: Exception | None = None
        while True:
            candidates = self._candidates(block, exclude=frozenset(failed))
            if not candidates:
                raise BlockUnavailable(
                    f"block {block.block_id}: no live replica"
                ) from last_error
            source = candidates[0]
            try:
                streamed = yield from self._stream_from(source, block, offset)
            except _SourceDied as err:  # resume from the next-best replica
                # Keep the cause, not its traceback: the traceback holds
                # the finished stream's frame and so its train.
                last_error = _SourceDied(err.source, err.streamed)
                failed.add(source)
                offset += err.streamed
                continue
            delivered = offset + streamed
            self.deployment.journal.emit(
                self.env.now,
                "read_complete",
                f"block:{block.block_id}",
                client=self.name,
                source=source,
                bytes=delivered,
                size=block.size,
            )
            return source

    # ------------------------------------------------------------------
    def _stream_from(
        self, source: str, block: Block, offset: int = 0
    ) -> ProcessGenerator:
        """Stream ``block`` from ``source`` starting at ``offset``.

        Returns the bytes streamed this attempt; raises
        :class:`_SourceDied` (carrying partial progress) if the source
        crashes underneath the stream.
        """
        datanode = self.deployment.datanode(source)
        size = block.size - offset
        if datanode.node is self.node:
            streamed = yield from self._short_circuit(datanode, size)
            return streamed
        if not datanode.node.alive:
            raise _SourceDied(source, 0)
        yield from self.network.connection_setup(1)
        try:
            serve = yield from datanode.open_serve(block.block_id, self.name)
        except DatanodeDead:
            raise _SourceDied(source, 0) from None
        try:
            stream = plan_read_train(
                self.deployment, datanode, self.node, serve, block, offset
            )
            if stream is not None:
                stream.start()
                outcome = yield stream.done
                if outcome is None:  # the source died under the stream
                    raise _SourceDied(source, stream.delivered_bytes)
                return stream.delivered_bytes
            streamed = yield from self._chunk_loop(datanode, serve, source, size)
            return streamed
        finally:
            serve.close()

    def _chunk_loop(
        self, datanode: Datanode, serve: ReadServe, source: str, size: int
    ) -> ProcessGenerator:
        """The per-chunk stream: prefetch pipeline over disk + NICs.

        The disk read of the next chunk is committed the instant the
        previous disk wait resolves, overlapping the current chunk's
        transfer — the recurrence :class:`~repro.hdfs.train.ReadTrain`
        reproduces analytically.
        """
        packet_size = self.config.hdfs.packet_size
        network = self.network
        disk = datanode.node.disk
        streamed = 0
        remaining = size
        next_chunk = min(packet_size, remaining)
        disk_done = disk.read_event(next_chunk)
        while remaining > 0:
            if not datanode.node.alive or serve.closed:
                raise _SourceDied(source, streamed)
            chunk = next_chunk
            yield disk_done
            remaining -= chunk
            if remaining > 0:
                next_chunk = min(packet_size, remaining)
                disk_done = disk.read_event(next_chunk)
            done, finish = network.transfer_begin(
                datanode.node, self.node, chunk
            )
            yield done
            finish()
            streamed += chunk
        return streamed

    def _short_circuit(self, datanode: Datanode, size: int) -> ProcessGenerator:
        """Short-circuit local read: scan the co-located replica's disk.

        No connection setup, no serve slot, no NIC occupancy — the block
        never crosses the network, exactly like Hadoop's
        ``dfs.client.read.shortcircuit``.  Chunked so a (self-)failing
        node is still detected at packet granularity.
        """
        disk = datanode.node.disk
        packet_size = self.config.hdfs.packet_size
        streamed = 0
        remaining = size
        while remaining > 0:
            if not datanode.node.alive:
                raise _SourceDied(datanode.name, streamed)
            chunk = min(packet_size, remaining)
            yield disk.read_event(chunk)
            remaining -= chunk
            streamed += chunk
        return streamed


class _SourceDied(HdfsError):
    """Internal: the replica being streamed from crashed.

    ``streamed`` is the byte count this attempt had fully delivered
    before the crash — the resume offset for the next replica.
    """

    def __init__(self, source: str, streamed: int = 0):
        super().__init__(f"replica {source} died mid-stream")
        self.source = source
        self.streamed = streamed
