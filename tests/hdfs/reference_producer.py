"""Reference oracle for the client's production recurrence.

:func:`producer` is the client's original producer, kept as it ran: a
process that spends ``size / rate`` on each packet and puts it into the
80-slot data queue, a :class:`~repro.sim.Store` whose put blocks while
the queue is full.  :class:`repro.hdfs.client.output_stream.Production`
computes the same put times as a recurrence and must hand every packet
to the sender at exactly the instant this queue would;
``test_production.py`` drives both with one consumer schedule.
"""

from __future__ import annotations

from typing import Sequence

from repro.hdfs.client.output_stream import DATA_QUEUE_PACKETS, BlockPlan
from repro.hdfs.protocol import Packet
from repro.sim import Environment, ProcessGenerator, Store


def producer(
    env: Environment,
    rate: float,
    plans: Sequence[BlockPlan],
    data_queue: Store,
) -> ProcessGenerator:
    """The DataStreamer's producing half: fill the data queue at
    ``T_c = size / rate`` per packet, for the whole file."""
    for plan in plans:
        last = plan.n_packets - 1
        for seq, psize in enumerate(plan.packet_sizes):
            yield env.timeout(psize / rate)
            yield data_queue.put(Packet(seq, psize, seq == last))


def start_producer(
    env: Environment, plans: Sequence[BlockPlan], rate: float
) -> Store:
    """Open the data queue and start the producer now; returns the queue."""
    data_queue: Store = Store(env, capacity=DATA_QUEUE_PACKETS)
    env.process(producer(env, rate, plans, data_queue), name="producer")
    return data_queue
