"""The production recurrence against the producer process it replaced.

:class:`~repro.hdfs.client.output_stream.Production` must hand every
packet to the sender at exactly the instant the old producer process
and its 80-slot data queue (``reference_producer.py``) would.  One
consumer schedule drives both: after taking packet ``k`` the consumer
pauses, then asks for packet ``k + 1``.  The schedule runs in phases, so
a slow phase can fill the queue and block the producer, and a fast phase
after it drains the queue and waits on the blocked producer's timeline.
Files run up to 260 packets; rates span slow production (the consumer
waits) to fast (the queue is the bound).
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import SMALL
from repro.cluster.node import Node
from repro.config import HdfsConfig
from repro.hdfs.client.output_stream import Production, plan_file, start_producer
from repro.sim import Environment
from repro.units import KB
from tests.hdfs import reference_producer

PACKET = 64 * KB
#: Four blocks per 260-packet file: takes cross block boundaries.
CONFIG = HdfsConfig(block_size=64 * PACKET, packet_size=PACKET)

files = st.integers(min_value=1, max_value=260 * PACKET)
#: Production rates in B/s, log-uniform from 1e3 to 4e8.
rates = st.floats(min_value=3.0, max_value=math.log10(4e8)).map(
    lambda exponent: 10.0**exponent
)
#: Consumer phases: (packets, pause in seconds before each take), cycled
#: over the file; a zero pause is the back-to-back sender.
phases = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=160),
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    ),
    min_size=1,
    max_size=4,
)


def _pauses(phases, n):
    """The pause before each of the ``n`` takes."""
    pauses: list[float] = []
    while len(pauses) < n:
        for count, pause in phases:
            pauses.extend([pause] * count)
    return pauses[:n]


def _consume(env, take, n, pauses, times):
    for k in range(n):
        pause = pauses[k]
        if pause:
            yield env.timeout(pause)
        yield from take(k)
        times.append(env.now)


def _reference_takes(plans, rate, pauses):
    """Take times and packets off the reference producer's queue."""
    env = Environment()
    queue = reference_producer.start_producer(env, plans, rate)
    packets = []

    def take(_k):
        packets.append((yield queue.get()))

    times: list[float] = []
    n = sum(plan.n_packets for plan in plans)
    env.run(until=env.process(_consume(env, take, n, pauses, times)))
    return times, packets


def _production_takes(plans, rate, pauses):
    env = Environment()
    production = Production(env.now, plans, rate)
    times: list[float] = []
    n = sum(plan.n_packets for plan in plans)

    def take(k):
        yield from production.take(env, k)

    env.run(until=env.process(_consume(env, take, n, pauses, times)))
    return times


def _analytic_takes(plans, rate, pauses):
    """A train's takes: ``g_k = max(issue_k, r_k)``, no simulation."""
    production = Production(0.0, plans, rate)
    times: list[float] = []
    issue = 0.0
    for k in range(sum(plan.n_packets for plan in plans)):
        pause = pauses[k]
        if pause:
            issue = issue + pause
        ready = production.ready(k)
        take = issue if issue > ready else ready
        production.take_at(k, take)
        times.append(take)
        issue = take
    return times


@settings(max_examples=60, deadline=None)
@given(size=files, rate=rates, phases=phases)
# A slow phase fills the queue, then a back-to-back one drains it.
@example(size=260 * PACKET, rate=4e8, phases=[(100, 1.0), (160, 0.0)])
@example(size=250 * PACKET - 1, rate=1e6, phases=[(90, 0.5), (85, 0.0)])
def test_production_matches_reference_producer(size, rate, phases):
    plans = plan_file(size, CONFIG)
    pauses = _pauses(phases, sum(plan.n_packets for plan in plans))
    reference, packets = _reference_takes(plans, rate, pauses)
    assert _production_takes(plans, rate, pauses) == reference
    assert _analytic_takes(plans, rate, pauses) == reference
    assert packets == [
        plan.packet(seq) for plan in plans for seq in range(plan.n_packets)
    ]


def test_first_packet_ready_after_one_production_time():
    """A file starts producing when its upload does, at the client
    instance's ``production_rate``."""
    env = Environment()
    env.run(until=3.0)
    node = Node(env, "n1", SMALL, rack="r")
    _plans, production = start_producer(env, node, PACKET, CONFIG)
    assert production.ready(0) == 3.0 + PACKET / SMALL.production_rate
    assert production.last_take == 3.0


def test_queue_bound_gates_the_eighty_first_packet():
    """Packet 80 enters the queue no earlier than packet 0 is taken."""
    plans = plan_file(100 * PACKET, CONFIG)
    production = Production(0.0, plans, 4e8)
    production.take_at(0, 7.0)
    for k in range(1, 80):
        production.take_at(k, 7.0 + k)
    assert production.ready(79) < 7.0
    assert production.ready(80) == 7.0
    assert production.ready(81) == 8.0


def test_rewind_forgets_takes_and_the_ready_times_they_gated():
    plans = plan_file(100 * PACKET, CONFIG)
    production = Production(0.0, plans, 4e8)
    for k in range(90):
        production.take_at(k, 10.0 + k)
    assert production.ready(85) == 15.0  # gated by packet 5's take
    production.rewind(3)
    assert production.last_take == 12.0
    for k in range(3, 90):
        production.take_at(k, 12.0 + k * 0.001)
    assert production.ready(82) == 12.0  # gated by the kept take of 2
    assert production.ready(85) == 12.0 + 5 * 0.001
