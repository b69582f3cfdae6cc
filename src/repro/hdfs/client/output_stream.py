"""Client-side output stream: block/packet planning and the producer.

§II step 2: the client treats the upload as a stream, fragments it into
64 MB blocks, splits each block into 64 KB packets, and a producer thread
reads local data, checksums it and appends packets to the data queue
(``T_c`` per packet).  Production runs concurrently with transmission —
the overlap that makes §III-D's two regimes (``T_c`` ≥ vs < ``P/B``)
emerge rather than being hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...cluster.node import Node
from ...config import HdfsConfig
from ...sim import Environment, ProcessGenerator, Store
from ..protocol import Packet

__all__ = [
    "BlockPlan",
    "plan_file",
    "producer",
    "start_producer",
    "DATA_QUEUE_PACKETS",
]

#: Hadoop 1.x caps dataQueue + ackQueue at 80 packets; we use it as the
#: producer-side data-queue depth.
DATA_QUEUE_PACKETS = 80


@dataclass(frozen=True)
class BlockPlan:
    """Planned layout of one block before it is allocated."""

    index: int
    size: int
    packet_sizes: tuple[int, ...]

    @property
    def n_packets(self) -> int:
        return len(self.packet_sizes)


def plan_file(size: int, config: HdfsConfig) -> list[BlockPlan]:
    """Split ``size`` bytes into blocks and packets per the config.

    The final block (and final packet of each block) may be short.
    """
    if size <= 0:
        raise ValueError(f"file size must be positive, got {size}")
    plans: list[BlockPlan] = []
    offset = 0
    index = 0
    while offset < size:
        block_size = min(config.block_size, size - offset)
        packet_sizes: list[int] = []
        remaining = block_size
        while remaining > 0:
            p = min(config.packet_size, remaining)
            packet_sizes.append(p)
            remaining -= p
        plans.append(
            BlockPlan(index=index, size=block_size, packet_sizes=tuple(packet_sizes))
        )
        offset += block_size
        index += 1
    return plans


def producer(
    env: Environment,
    client_node: Node,
    plans: list[BlockPlan],
    data_queue: Store,
) -> ProcessGenerator:
    """The DataStreamer's producing half: fill the data queue at ``T_c``/packet.

    Runs for the whole file; the consuming streamer pulls packets in order.
    """
    for plan in plans:
        last = plan.n_packets - 1
        for seq, psize in enumerate(plan.packet_sizes):
            # Inlined (no process spawn): production is one timeout and
            # this runs once per packet.
            yield from client_node.produce(psize)
            yield data_queue.put(Packet(seq, psize, seq == last))


def start_producer(
    env: Environment,
    client_node: Node,
    path: str,
    size: int,
    config: HdfsConfig,
) -> tuple[list[BlockPlan], Store, bool]:
    """Plan the file, open its data queue and start the producer (§II step 2).

    Returns ``(plans, data_queue, batchable)``.  ``batchable`` says the
    whole file fits the data queue: producer puts can then never block,
    which is what makes the train's batched feeder safe (see
    ``PacketTrain._feed_available``).
    """
    plans = plan_file(size, config)
    data_queue: Store = Store(env, capacity=DATA_QUEUE_PACKETS)
    batchable = sum(p.n_packets for p in plans) <= DATA_QUEUE_PACKETS
    env.process(
        producer(env, client_node, plans, data_queue), name=f"producer:{path}"
    )
    return plans, data_queue, batchable
