"""Unit tests for the datanode service and BlockReceiver mechanics."""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.hdfs.protocol import Packet
from repro.sim import Environment, Store
from repro.units import KB, MB, mbps


def make(n_datanodes=3, **hdfs):
    env = Environment()
    defaults = dict(block_size=MB, packet_size=64 * KB)
    defaults.update(hdfs)
    cfg = SimulationConfig().with_hdfs(**defaults)
    cluster = build_homogeneous(env, SMALL, n_datanodes=n_datanodes, config=cfg)
    deployment = HdfsDeployment(cluster, enable_replication_monitor=False)
    return env, deployment


def packets_for(block, packet_size):
    sizes = []
    remaining = block.size
    while remaining > 0:
        p = min(packet_size, remaining)
        sizes.append(p)
        remaining -= p
    return [
        Packet(seq, size, is_last=(seq == len(sizes) - 1))
        for seq, size in enumerate(sizes)
    ]


class TestSingleReceiver:
    def test_receives_and_finalizes(self):
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, 256 * KB)
        handle = dep.open_pipeline(block, ("dn0",), dep.cluster.client_host)
        receiver = handle.receivers[0]

        def feed(env):
            for pkt in packets_for(block, 64 * KB):
                yield from receiver.send_in(dep.cluster.client_host, pkt)

        env.process(feed(env))
        env.run(until=5)
        assert receiver.finalized
        assert receiver.bytes_received == 256 * KB
        assert dep.namenode.replication_of(block.block_id) == 1

    def test_acks_arrive_in_order(self):
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, 256 * KB)
        handle = dep.open_pipeline(block, ("dn0",), dep.cluster.client_host)
        receiver = handle.receivers[0]

        def feed(env):
            for pkt in packets_for(block, 64 * KB):
                yield from receiver.send_in(dep.cluster.client_host, pkt)

        env.process(feed(env))
        seqs = []

        def drain(env):
            for _ in range(4):
                ack = yield handle.ack_in.get()
                seqs.append(ack.seq)

        env.process(drain(env))
        env.run(until=5)
        assert seqs == [0, 1, 2, 3]

    def test_initial_bytes_counted_in_report(self):
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, 256 * KB)
        handle = dep.open_pipeline(
            block,
            ("dn0",),
            dep.cluster.client_host,
            initial_bytes=128 * KB,
        )
        receiver = handle.receivers[0]
        tail = Packet(0, 128 * KB, is_last=True)

        def feed(env):
            yield from receiver.send_in(dep.cluster.client_host, tail)

        env.process(feed(env))
        env.run(until=5)
        info = dep.namenode.blocks.info(block.block_id)
        assert info.replicas["dn0"].bytes_confirmed == 256 * KB


class TestBackpressure:
    def test_bounded_buffer_blocks_sender(self):
        """With a tiny buffer and a stalled pipeline, the sender waits."""
        env, dep = make(packet_size=64 * KB)
        block = dep.namenode.blocks.allocate("/f", 0, MB)
        # Two-node pipeline; throttle the forward hop to near-zero so the
        # first receiver's buffer fills and stays full.
        dep.cluster.throttle_node("dn1", 0.001)
        handle = dep.open_pipeline(
            block,
            ("dn0", "dn1"),
            dep.cluster.client_host,
            buffer_bytes=4 * 64 * KB,
        )
        receiver = handle.receivers[0]
        fed = []

        def feed(env):
            for pkt in packets_for(block, 64 * KB):
                yield from receiver.send_in(dep.cluster.client_host, pkt)
                fed.append(env.now)

        env.process(feed(env))
        env.run(until=30)
        # 16 packets total; buffer 4 + 1 in flight — the sender must be
        # blocked long before feeding everything.
        assert len(fed) < 8

    def test_fnfa_independent_of_downstream(self):
        """The paper's core mechanism: first-node store completes at
        first-hop speed even when the forward hop crawls."""
        env, dep = make(packet_size=64 * KB)
        block = dep.namenode.blocks.allocate("/f", 0, MB)
        dep.cluster.throttle_node("dn1", 1)  # 1 Mbps forward hop
        handle = dep.open_pipeline(
            block,
            ("dn0", "dn1"),
            dep.cluster.client_host,
            want_fnfa=True,
            buffer_bytes=MB,
        )
        receiver = handle.receivers[0]

        def feed(env):
            for pkt in packets_for(block, 64 * KB):
                yield from receiver.send_in(dep.cluster.client_host, pkt)

        env.process(feed(env))

        got = []

        def wait_fnfa(env):
            fnfa = yield handle.fnfa_in.get()
            got.append(fnfa.finished_at)

        env.process(wait_fnfa(env))
        env.run(until=20)
        # 1 MB at 216 Mbps ≈ 0.04 s; at the throttled 1 Mbps it would be
        # ≈ 8.4 s.  FNFA must arrive at first-hop speed.
        assert got and got[0] < 1.0


class TestKillSemantics:
    def test_kill_fires_error_with_name(self):
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, MB)
        handle = dep.open_pipeline(
            block, ("dn0", "dn1"), dep.cluster.client_host
        )

        def killer(env):
            yield env.timeout(0.01)
            dep.datanode("dn1").kill()

        env.process(killer(env))
        receiver = handle.receivers[0]

        def feed(env):
            for pkt in packets_for(block, 64 * KB):
                yield from receiver.send_in(dep.cluster.client_host, pkt)

        env.process(feed(env))
        env.run(until=5)
        assert handle.error.triggered
        assert handle.error.value == "dn1"

    def test_open_receiver_on_dead_datanode_raises(self):
        env, dep = make()
        dep.datanode("dn0").kill()
        block = dep.namenode.blocks.allocate("/f", 0, MB)
        with pytest.raises(RuntimeError, match="dead"):
            dep.open_pipeline(block, ("dn0",), dep.cluster.client_host)

    def test_teardown_is_idempotent(self):
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, MB)
        handle = dep.open_pipeline(block, ("dn0", "dn1"), dep.cluster.client_host)
        handle.teardown()
        handle.teardown()  # second call is a no-op
        env.run(until=1)
        assert dep.datanode("dn0").active_receivers == 0
        assert dep.datanode("dn1").active_receivers == 0


class TestFinalizer:
    """``BlockReceiver.finalize``: the timed-callback chain both paths run
    at the last write's landing ``W`` (store, FNFA, blockReceived, close),
    and what an abort at each stage leaves of it."""

    def _finalize(self, monkeypatch, hop, abort_after=None):
        """Land a last write on ``hop`` of a two-hop SMARTH-style pipeline
        whose ACKs are already relayed, abort that receiver
        ``abort_after`` control latencies past ``W`` (if given), and
        return ``W``, the control latency and the instants of each
        block_stored, FNFA, blockReceived and close of that receiver."""
        env, dep = make()
        block = dep.namenode.blocks.allocate("/f", 0, 64 * KB)
        handle = dep.open_pipeline(
            block, ("dn0", "dn1"), dep.cluster.client_host, want_fnfa=True
        )
        receiver = handle.receivers[hop]
        receiver._acks_done = True
        reports, closes = [], []
        received = type(dep.namenode).block_received
        closed = type(receiver.datanode)._receiver_closed

        def report(namenode, block_id, datanode, size):
            reports.append(env.now)
            received(namenode, block_id, datanode, size)

        def close(datanode, rec):
            if rec is receiver:
                closes.append(env.now)
            closed(datanode, rec)

        monkeypatch.setattr(type(dep.namenode), "block_received", report)
        monkeypatch.setattr(type(receiver.datanode), "_receiver_closed", close)
        C = dep.network.config.control_latency
        write = receiver.host.disk.write_event(64 * KB)
        W = receiver.host.disk._channel.busy_until
        write.callbacks.append(receiver.finalize)
        if abort_after is not None:
            env.call_at(W + abort_after * C, lambda _: receiver.abort(None))
        env.run()
        stored = [
            e.time for e in dep.journal.events() if e.kind == "block_stored"
        ]
        fnfas = [f.finished_at for f in handle.fnfa_in.items]
        return W, C, (stored, fnfas, reports, closes)

    def test_first_hop_chain(self, monkeypatch):
        W, C, seen = self._finalize(monkeypatch, 0)
        assert seen == ([W], [W + C], [W + C + C], [W + C + C])

    def test_later_hop_reports_after_one_delay(self, monkeypatch):
        W, C, seen = self._finalize(monkeypatch, 1)
        assert seen == ([W], [], [W + C], [W + C])

    @pytest.mark.parametrize("hop", [0, 1])
    def test_abort_before_the_last_write_finalizes_nothing(
        self, monkeypatch, hop
    ):
        W, C, seen = self._finalize(monkeypatch, hop, abort_after=-0.5)
        assert seen == ([], [], [], [W - 0.5 * C])  # the abort's own close

    def test_abort_before_the_fnfa_cancels_fnfa_and_report(self, monkeypatch):
        W, C, seen = self._finalize(monkeypatch, 0, abort_after=0.5)
        assert seen == ([W], [], [], [W + 0.5 * C])

    @pytest.mark.parametrize("hop, after", [(0, 1.5), (1, 0.5)])
    def test_abort_during_the_report_still_reports(
        self, monkeypatch, hop, after
    ):
        """The report is on the wire: it lands, but the receiver is not
        closed again."""
        W, C, seen = self._finalize(monkeypatch, hop, abort_after=after)
        fnfas, report = ([W + C], W + C + C) if hop == 0 else ([], W + C)
        assert seen == ([W], fnfas, [report], [W + after * C])


class TestReceiverOrder:
    def test_receivers_and_kill_follow_open_order(self):
        """Open receivers are walked and aborted in open order, never in
        memory-address order (a set of id-hashed receivers)."""
        env, dep = make()
        receivers = []
        for i in range(6):
            block = dep.namenode.blocks.allocate(f"/f{i}", 0, MB)
            handle = dep.open_pipeline(block, ("dn0",), dep.cluster.client_host)
            receivers.append(handle.receivers[0])
        dn0 = dep.datanode("dn0")
        assert dn0.receivers == tuple(receivers)

        receivers[2].abort()
        del receivers[2]
        assert dn0.receivers == tuple(receivers)

        aborted = []
        for receiver in receivers:
            original = receiver.abort
            receiver.abort = (
                lambda failed=None, r=receiver, abort=original: (
                    aborted.append(r),
                    abort(failed),
                )
            )
        dn0.kill()
        assert aborted == receivers
        assert dn0.receivers == ()
