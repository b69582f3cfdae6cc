"""Unit tests for the client-side SmarthPipeline state object."""

import pytest

from repro.hdfs.client.output_stream import BlockPlan
from repro.hdfs.client.responder import PacketResponder
from repro.hdfs.protocol import Ack, Block, Packet
from repro.sim import Environment, Resource, Store
from repro.smarth.pipeline import PipelineState, SmarthPipeline


@pytest.fixture()
def env():
    return Environment()


def make_pipeline(env, n_packets=4):
    plan = BlockPlan(index=0, size=n_packets * 100, packet_sizes=(100,) * n_packets)
    block = Block(1, "/f", 0, plan.size)
    slots = Resource(env, capacity=3)
    slot = slots.request()
    return SmarthPipeline(env, plan, block, ("dn0", "dn1", "dn2"), slot)


class _FakeHandle:
    """Stand-in for a PipelineHandle: just the ack stream."""

    def __init__(self, env):
        self.ack_in = Store(env)


class TestStateTracking:
    def test_initial_state(self, env):
        p = make_pipeline(env)
        assert p.state is PipelineState.STREAMING
        assert p.pending_seqs() == [0, 1, 2, 3]
        assert p.acked_bytes == 0
        assert not p.fnfa_received and not p.fully_streamed

    def test_note_sent_excludes_from_pending(self, env):
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        p.bind(handle, PacketResponder(env, p.block, handle.ack_in))
        p.note_sent(0)
        p.note_sent(1)
        assert p.pending_seqs() == [2, 3]

    def test_fold_acks_uses_attempt_order(self, env):
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        responder = PacketResponder(env, p.block, handle.ack_in)
        p.bind(handle, responder)
        for seq in (2, 3):  # tail-only attempt (earlier seqs already acked)
            p.acked_seqs.add(seq - 2)
            packet = Packet(seq, 100, is_last=(seq == 3))
            p.produced[seq] = packet
            p.note_sent(seq)
            responder.packet_sent(packet)

        def feed(env):
            yield handle.ack_in.put(Ack(p.block.block_id, 2))

        env.process(feed(env))
        env.run(until=1)
        p.fold_acks()
        assert p.acked_seqs == {0, 1, 2}
        assert p.pending_seqs() == []  # 3 was sent on this handle

    def test_bind_resets_attempt_state(self, env):
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        p.bind(handle, PacketResponder(env, p.block, handle.ack_in))
        p.note_sent(0)
        new_handle = _FakeHandle(env)
        p.bind(new_handle, PacketResponder(env, p.block, new_handle.ack_in))
        assert p.sent_seqs == set()
        assert p.pending_seqs() == [0, 1, 2, 3]

    def test_rebind_block_adopts_generation_and_targets(self, env):
        p = make_pipeline(env)
        p.produced[0] = Packet(0, 100)
        new_block = p.block.with_generation(1)
        p.rebind_block(new_block, ("dn0", "dn5", "dn6"))
        assert p.block.generation == 1
        assert p.recoveries == 1
        assert p.skip_speed_record
        assert p.targets == ("dn0", "dn5", "dn6")

    def test_acked_bytes_sums_produced(self, env):
        p = make_pipeline(env)
        p.produced[0] = Packet(0, 100)
        p.produced[1] = Packet(1, 100)
        p.acked_seqs = {0, 1}
        assert p.acked_bytes == 200

    def test_mark_done_fires_event(self, env):
        p = make_pipeline(env)
        p.mark_done()
        assert p.state is PipelineState.DONE
        assert p.done.triggered
        p.mark_done()  # idempotent
        assert p.done.value is p
