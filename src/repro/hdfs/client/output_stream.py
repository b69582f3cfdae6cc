"""Client-side output stream: block/packet planning and the production
recurrence.

§II step 2: the client treats the upload as a stream, fragments it into
64 MB blocks, splits each block into 64 KB packets, and a producer thread
reads local data, checksums it and appends packets to the data queue
(``T_c`` per packet).  Production runs concurrently with transmission —
the overlap that makes §III-D's two regimes (``T_c`` ≥ vs < ``P/B``)
emerge rather than being hard-coded.

The producer is one thread at a fixed rate whose only coupling to the
rest of the run is the queue bound, so it is not simulated as a process:
:class:`Production` computes when each packet enters the data queue from
the times the sender took the packets before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...cluster.node import Node
from ...config import HdfsConfig
from ...sim import Environment, ProcessGenerator
from ..protocol import Packet

__all__ = [
    "BlockPlan",
    "Production",
    "plan_file",
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
    #: File-wide number of the block's first packet (production numbers
    #: packets across the whole file).
    first: int = 0

    @property
    def n_packets(self) -> int:
        return len(self.packet_sizes)

    def packet(self, seq: int) -> Packet:
        """The block's packet ``seq``."""
        last = len(self.packet_sizes) - 1
        return Packet(seq, self.packet_sizes[seq], seq == last)


def plan_file(size: int, config: HdfsConfig) -> list[BlockPlan]:
    """Split ``size`` bytes into blocks and packets per the config.

    The final block (and final packet of each block) may be short.
    """
    if size <= 0:
        raise ValueError(f"file size must be positive, got {size}")
    plans: list[BlockPlan] = []
    offset = 0
    index = 0
    first = 0
    while offset < size:
        block_size = min(config.block_size, size - offset)
        packet_sizes: list[int] = []
        remaining = block_size
        while remaining > 0:
            p = min(config.packet_size, remaining)
            packet_sizes.append(p)
            remaining -= p
        plans.append(
            BlockPlan(
                index=index,
                size=block_size,
                packet_sizes=tuple(packet_sizes),
                first=first,
            )
        )
        offset += block_size
        index += 1
        first += len(packet_sizes)
    return plans


class Production:
    """The producer thread and its data queue as a recurrence.

    Packets are numbered file-wide.  The producer finishes packet ``k``
    ``c_k = size_k / rate`` after it put packet ``k - 1`` into the queue
    (after ``start`` for the first), and the put waits while the queue
    holds :data:`DATA_QUEUE_PACKETS` packets — until packet ``k - 80`` is
    taken.  So packet ``k`` enters the queue at

        r_k = max(r_{k-1} + c_k, g_{k-80})

    where ``g_j`` is when the sender took packet ``j``.  Ready times are
    computed lazily, with the same float additions a producer process's
    ``timeout(size / rate)`` makes.  Takes happen in packet order, so
    ``g_{k-80}`` is known whenever ``r_k`` is asked for.
    """

    __slots__ = ("_start", "_rate", "_sizes", "_ready", "_taken")

    def __init__(self, start: float, plans: Sequence[BlockPlan], rate: float):
        self._start = start
        self._rate = rate
        self._sizes = [size for plan in plans for size in plan.packet_sizes]
        self._ready: list[float] = []
        self._taken: list[float] = []

    def ready(self, k: int) -> float:
        """``r_k``: when packet ``k`` enters the data queue."""
        ready, sizes, rate = self._ready, self._sizes, self._rate
        while len(ready) <= k:
            j = len(ready)
            r = (ready[-1] if ready else self._start) + sizes[j] / rate
            if j >= DATA_QUEUE_PACKETS:
                freed = self._taken[j - DATA_QUEUE_PACKETS]
                if freed > r:
                    r = freed
            ready.append(r)
        return ready[k]

    def take(self, env: Environment, k: int) -> ProcessGenerator:
        """Take packet ``k`` off the queue, waiting until it is produced."""
        ready = self.ready(k)
        if ready > env.now:
            yield env.timeout_at(ready)
        self.take_at(k, env.now)

    def take_at(self, k: int, when: float) -> None:
        """Record that packet ``k`` is taken at ``when`` (a train's
        analytic take; ``when`` is no earlier than ``ready(k)``)."""
        assert k == len(self._taken), (k, len(self._taken))
        self._taken.append(when)

    @property
    def last_take(self) -> float:
        """When the latest packet was taken (``start`` before any take)."""
        return self._taken[-1] if self._taken else self._start

    def rewind(self, n: int) -> None:
        """Forget the takes from packet ``n`` on, and the ready times
        they gated (``r_j`` for ``j >= n + 80``)."""
        del self._taken[n:]
        del self._ready[n + DATA_QUEUE_PACKETS :]


def start_producer(
    env: Environment,
    client_node: Node,
    size: int,
    config: HdfsConfig,
) -> tuple[list[BlockPlan], Production]:
    """Plan the file and start producing it now (§II step 2).

    Returns ``(plans, production)``; production runs at the client
    instance's ``production_rate``.
    """
    plans = plan_file(size, config)
    rate = client_node.instance.production_rate
    return plans, Production(env.now, plans, rate)
