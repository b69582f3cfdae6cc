"""Unit tests for the client-side PacketResponder."""

import pytest

from repro.hdfs.client.responder import PacketResponder
from repro.hdfs.protocol import Ack, Block, Packet
from repro.sim import Environment, Store


@pytest.fixture()
def env():
    return Environment()


def setup(env, n_packets=3, block_id=1):
    block = Block(block_id, "/f", 0, n_packets * 100)
    ack_in = Store(env)
    responder = PacketResponder(env, block, ack_in)
    packets = [
        Packet(seq, 100, is_last=(seq == n_packets - 1))
        for seq in range(n_packets)
    ]
    return block, ack_in, responder, packets


class TestAckMatching:
    def test_in_order_acks_drain_queue(self, env):
        block, ack_in, responder, packets = setup(env)
        for pkt in packets:
            responder.packet_sent(pkt)

        def feed(env):
            for seq in range(3):
                yield ack_in.put(Ack(block.block_id, seq))

        env.process(feed(env))
        env.run(until=1)
        assert responder.block_done.triggered
        assert responder.acked_count == 3
        assert responder.acked_bytes == 300
        assert not responder.ack_queue

    # A pipeline attempt's ``ack_in`` carries only its own block's ACKs,
    # in send order and each after its send: any other ACK is a bug.
    def test_wrong_block_ack_raises(self, env):
        block, ack_in, responder, packets = setup(env)
        responder.packet_sent(packets[0])
        ack_in.put(Ack(999, 0))
        with pytest.raises(AssertionError):
            env.run(until=1)

    def test_out_of_order_ack_raises(self, env):
        block, ack_in, responder, packets = setup(env)
        for pkt in packets:
            responder.packet_sent(pkt)
        ack_in.put(Ack(block.block_id, 2))  # head is seq 0
        with pytest.raises(AssertionError):
            env.run(until=1)

    def test_ack_before_send_raises(self, env):
        block, ack_in, responder, packets = setup(env)
        responder.packet_sent(packets[0])
        ack_in.put(Ack(block.block_id, 0))
        ack_in.put(Ack(block.block_id, 1))  # seq 1 was never sent
        with pytest.raises(AssertionError):
            env.run(until=1)

    def test_block_done_carries_block(self, env):
        block, ack_in, responder, packets = setup(env, n_packets=1)
        responder.packet_sent(packets[0])

        def feed(env):
            yield ack_in.put(Ack(block.block_id, 0))

        env.process(feed(env))
        env.run(until=1)
        assert responder.block_done.value is block


class TestRecoveryHooks:
    def test_stop_interrupts(self, env):
        block, ack_in, responder, packets = setup(env)
        responder.packet_sent(packets[0])  # the first send starts the loop
        env.run(until=0.1)
        responder.stop()
        env.run(until=0.2)
        assert not responder._proc.is_alive
