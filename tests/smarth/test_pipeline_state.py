"""Unit tests for the client-side SmarthPipeline state object."""

import pytest

from repro.hdfs.client.output_stream import BlockPlan, Production
from repro.hdfs.client.responder import PacketResponder
from repro.hdfs.client.send import BlockProgress
from repro.hdfs.protocol import Ack, Block
from repro.sim import Environment, Resource, Store
from repro.smarth.pipeline import PipelineState, SmarthPipeline


@pytest.fixture()
def env():
    return Environment()


def make_pipeline(env, n_packets=4, sizes=None):
    sizes = sizes or (100,) * n_packets
    plan = BlockPlan(index=0, size=sum(sizes), packet_sizes=sizes)
    progress = BlockProgress(plan, Production(env.now, [plan], 1e6))
    block = Block(1, "/f", 0, plan.size)
    slots = Resource(env, capacity=3)
    slot = slots.request()
    return SmarthPipeline(env, progress, block, ("dn0", "dn1", "dn2"), slot)


class _FakeHandle:
    """Stand-in for a PipelineHandle: the ack stream and a teardown."""

    def __init__(self, env):
        self.ack_in = Store(env)

    def teardown(self):
        pass


class TestStateTracking:
    def test_initial_state(self, env):
        p = make_pipeline(env)
        assert p.state is PipelineState.STREAMING
        assert p.plan is p.progress.plan
        assert (p.progress.taken, p.progress.acked, p.progress.sent) == (0, 0, 0)
        assert p.progress.acked_bytes == 0
        assert not p.fnfa_received and not p.fully_streamed

    def test_note_sent_excludes_from_pending(self, env):
        """Packets sent on the current handle sit between ``acked`` and the
        resume point, so a pause resends none of them."""
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        p.bind(handle, PacketResponder(env, p.block, handle.ack_in))
        progress = p.progress
        progress.taken = 4
        progress.sent += 2
        resume = progress.acked + progress.sent
        assert list(range(resume, progress.taken)) == [2, 3]

    def test_fold_acks_uses_attempt_order(self, env):
        """Teardown adds the attempt's ACKed prefix to ``acked`` and forgets
        its sends, so the next attempt resends from the first un-ACKed
        packet; tearing down again folds nothing twice."""
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        responder = PacketResponder(env, p.block, handle.ack_in)
        p.bind(handle, responder)
        progress = p.progress
        progress.taken = 4
        progress.acked = 1  # an earlier attempt's ACKed prefix
        for seq in (1, 2):
            progress.sent += 1
            responder.packet_sent(p.plan.packet(seq))

        def feed(env):
            yield handle.ack_in.put(Ack(p.block.block_id, 1))

        env.process(feed(env))
        env.run(until=1)
        assert progress.acked + progress.sent == 3  # a pause resumes at 3
        p.teardown()
        assert (progress.acked, progress.sent) == (2, 0)
        p.teardown()
        assert (progress.acked, progress.sent) == (2, 0)

    def test_bind_resets_attempt_state(self, env):
        """A rebuilt handle starts with nothing sent on it: the teardown
        before it drops the unacknowledged sends, so every packet after
        the ACKed prefix is pending again."""
        p = make_pipeline(env)
        handle = _FakeHandle(env)
        p.bind(handle, PacketResponder(env, p.block, handle.ack_in))
        progress = p.progress
        progress.taken = 4
        progress.sent += 1
        p.teardown()
        new_handle = _FakeHandle(env)
        new_responder = PacketResponder(env, p.block, new_handle.ack_in)
        p.bind(new_handle, new_responder)
        assert (p.handle, p.responder) == (new_handle, new_responder)
        assert (progress.acked, progress.sent) == (0, 0)
        resume = progress.acked + progress.sent
        assert list(range(resume, progress.taken)) == [0, 1, 2, 3]

    def test_rebind_block_adopts_generation_and_targets(self, env):
        p = make_pipeline(env)
        new_block = p.block.with_generation(1)
        p.rebind_block(new_block, ("dn0", "dn5", "dn6"))
        assert p.block.generation == 1
        assert p.skip_speed_record
        assert p.targets == ("dn0", "dn5", "dn6")

    def test_acked_bytes_sums_produced(self, env):
        """The ACKed prefix's bytes come from the plan's packet sizes."""
        p = make_pipeline(env, sizes=(100, 100, 50))
        p.progress.taken = 3
        p.progress.acked = 2
        assert p.progress.acked_bytes == 200

    def test_mark_done_fires_event(self, env):
        p = make_pipeline(env)
        p.mark_done()
        assert p.state is PipelineState.DONE
        assert p.done.triggered
        p.mark_done()  # idempotent
        # No value: a done event holding its pipeline would be a cycle.
        assert p.done.value is None
