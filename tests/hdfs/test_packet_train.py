"""Packet-train coalescing: equivalence and invalidation tests.

The fast path (``HdfsConfig.coalesce_packets == 0``, the default) must be
*behaviour-preserving*: every observable — upload duration, the protocol
journal, NIC/disk byte counters, buffer high-water marks, recovery counts
— must be bit-identical to the per-packet loop (``coalesce_packets=1``).
These tests drive both modes through steady-state uploads, mid-train
throttle changes (the split/re-quote path), datanode kills (the error
settle) and Algorithm 4's pause of a SMARTH block (the hold), comparing
the full observable history.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.faults import FaultInjector
from repro.hdfs import HdfsClient, HdfsDeployment, HdfsReader
from repro.hdfs import datanode as datanode_module
from repro.hdfs.client.data_streamer import SOCKET_BUFFER
from repro.hdfs.namenode import Namenode
from repro.hdfs.protocol import FNFA
from repro.hdfs.train import PacketTrain, ReadTrain, plan_read_train, plan_train
from repro.net.throttle import NodeThrottle
from repro.sim import Environment
from repro.smarth import SmarthClient, SmarthDeployment
from repro.units import KB, MB, mbps

UPLOAD = 64 * MB


def _config(coalesce: int) -> SimulationConfig:
    return SimulationConfig().with_hdfs(
        block_size=16 * MB, packet_size=64 * KB, coalesce_packets=coalesce
    )


def _run(coalesce, chaos=None, client_cls=HdfsClient, size=UPLOAD):
    env = Environment()
    cluster = build_homogeneous(
        env, SMALL, n_datanodes=9, config=_config(coalesce)
    )
    deployment = HdfsDeployment(cluster)
    client = client_cls(deployment)
    if chaos is not None:
        env.process(chaos(env, deployment), name="chaos")
    result = env.run(until=env.process(client.put("/data/f.bin", size)))
    return result, deployment


def _observables(result, deployment):
    journal = [
        (e.time, e.kind, e.subject, tuple(sorted(e.details.items())))
        for e in deployment.journal.events()
    ]
    counters = {
        name: (
            dn.node.nic.bytes_sent,
            dn.node.nic.bytes_received,
            dn.node.disk.bytes_written,
        )
        for name, dn in deployment.datanodes.items()
    }
    return {
        "duration": result.duration,
        "recoveries": result.recoveries,
        "pipelines": result.pipelines,
        "journal": journal,
        "counters": counters,
    }


def _assert_equivalent(chaos=None, client_cls=HdfsClient):
    legacy = _observables(*_run(1, chaos=chaos, client_cls=client_cls))
    train = _observables(*_run(0, chaos=chaos, client_cls=client_cls))
    for key in legacy:
        assert train[key] == legacy[key], f"{key} diverged from legacy"


class TestSteadyStateEquivalence:
    def test_hdfs_upload_bit_identical(self):
        _assert_equivalent()

    def test_smarth_upload_bit_identical(self):
        _assert_equivalent(client_cls=SmarthClient)

    def test_train_actually_engages(self):
        """The fast path must reduce events, not silently decline: the
        64 MB upload's exact heap events on the per-packet loop (1) and
        with trains (0), which plan each block whole at start."""
        env_events = {}
        for coalesce in (1, 0):
            env = Environment()
            cluster = build_homogeneous(
                env, SMALL, n_datanodes=9, config=_config(coalesce)
            )
            deployment = HdfsDeployment(cluster)
            client = HdfsClient(deployment)
            env.run(until=env.process(client.put("/data/f.bin", UPLOAD)))
            env_events[coalesce] = env.events_processed
        assert env_events == {1: 18_506, 0: 66}

    def test_kernel_pipeline_counts(self):
        """The ``kernel.pipeline`` event-reduction floor's home, on
        ``bench_kernel``'s pipeline shape (256 MB over 32 MB blocks): the
        exact heap events of both modes, one duration, and trains at
        least 3x fewer events (572.7x)."""
        env_events, durations = {}, set()
        for coalesce in (1, 0):
            env = Environment()
            config = SimulationConfig().with_hdfs(
                block_size=32 * MB,
                packet_size=64 * KB,
                coalesce_packets=coalesce,
            )
            cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
            client = HdfsClient(HdfsDeployment(cluster))
            result = env.run(
                until=env.process(client.put("/bench/pipeline.bin", 256 * MB))
            )
            env_events[coalesce] = env.events_processed
            durations.add(result.duration)
        assert env_events == {1: 73_873, 0: 129}
        assert len(durations) == 1
        assert env_events[1] >= 3.0 * env_events[0]


#: Name prefixes of the per-packet loops: a receiver's receive, ACK-relay
#: and forward loops, and the client responder's ACK loop.
PER_PACKET_LOOPS = ("recv:", "ackr:", "fwd:", "responder:")


def _spawned_process_names(monkeypatch, coalesce, client_cls):
    """Names of every process one single-block upload creates."""
    names = []
    spawn = Environment.process

    def recording(self, generator, name=None):
        names.append(name or getattr(generator, "__name__", ""))
        return spawn(self, generator, name=name)

    monkeypatch.setattr(Environment, "process", recording)
    _run(coalesce, client_cls=client_cls, size=16 * MB)
    monkeypatch.undo()
    return names


@pytest.mark.parametrize(
    "client_cls", [HdfsClient, SmarthClient], ids=["hdfs", "smarth"]
)
class TestNoPerPacketLoopsUnderTrain:
    """The loops start with the first packet sent one by one, so a block
    sent as a train never creates them; the train itself is timed
    callbacks, and so is the finalizer both paths share."""

    def test_train_starts_no_per_packet_loop(self, monkeypatch, client_cls):
        """With a train the upload spawns exactly the per-packet run's
        processes minus the per-packet loops: no conductor, finalizer or
        report process."""
        train = Counter(_spawned_process_names(monkeypatch, 0, client_cls))
        legacy = Counter(
            name
            for name in _spawned_process_names(monkeypatch, 1, client_cls)
            if not name.startswith(PER_PACKET_LOOPS)
        )
        assert train == legacy

    def test_per_packet_path_starts_every_loop(self, monkeypatch, client_cls):
        names = _spawned_process_names(monkeypatch, 1, client_cls)
        for kind in PER_PACKET_LOOPS:
            assert any(n.startswith(kind) for n in names), kind

    def test_finalizer_lands_on_the_timeline(self, monkeypatch, client_cls):
        """On both paths each hop's ``block_stored`` lands at its last
        write ``w[h][K-1]``.  A SMARTH first hop's FNFA lands one control
        delay later and its ``blockReceived`` one more delay after it; on
        every other hop ``blockReceived`` lands one delay after the
        write."""
        settled = []
        settle = PacketTrain._settle_success

        def recording(train):
            settled.append(
                (train.block.block_id, [r.name for r in train.receivers],
                 [w[-1] for w in train._w])
            )
            return settle(train)

        monkeypatch.setattr(PacketTrain, "_settle_success", recording)
        _run(0, client_cls=client_cls, size=16 * MB)
        monkeypatch.undo()
        [(block_id, hops, last_writes)] = settled

        for coalesce in (0, 1):
            fnfas, reports = [], {}

            def fnfa(**fields):
                fnfas.append(fields["finished_at"])
                return FNFA(**fields)

            received = Namenode.block_received

            def report(namenode, block, datanode, size):
                reports[datanode] = namenode.env.now
                return received(namenode, block, datanode, size)

            monkeypatch.setattr(datanode_module, "FNFA", fnfa)
            monkeypatch.setattr(Namenode, "block_received", report)
            _, deployment = _run(coalesce, client_cls=client_cls, size=16 * MB)
            monkeypatch.undo()
            C = deployment.network.config.control_latency
            stored = {
                e.details["datanode"]: e.time
                for e in deployment.journal.events()
                if e.kind == "block_stored"
            }
            assert stored == dict(zip(hops, last_writes)), coalesce
            expected = {name: w + C for name, w in zip(hops, last_writes)}
            if client_cls is SmarthClient:
                first = last_writes[0] + C
                assert fnfas == [first]
                expected[hops[0]] = first + C
            else:
                assert fnfas == []
            assert reports == expected, coalesce


class TestMidTrainThrottle:
    """A ``tc`` rule change lands while trains are in flight: the affected
    trains must split at the change point — frozen prefix kept, suffix
    re-quoted at the new effective rates — and stay bit-identical."""

    @pytest.mark.parametrize("at", [0.4, 1.1, 2.2])
    def test_throttle_splits_train(self, at):
        def chaos(env, deployment):
            yield env.timeout(at)
            busy = [
                d
                for d in deployment.datanodes.values()
                if d.active_receivers > 0
            ]
            for dn in busy[:2]:
                deployment.network.throttles.add(
                    NodeThrottle(dn.name, mbps(40))
                )
            yield env.timeout(0.9)
            deployment.network.throttles.remove_matching(
                lambda rule: isinstance(rule, NodeThrottle)
            )

        _assert_equivalent(chaos=chaos)

    def test_throttle_splits_smarth_train(self):
        def chaos(env, deployment):
            yield env.timeout(0.8)
            busy = [
                d
                for d in deployment.datanodes.values()
                if d.active_receivers > 0
            ]
            for dn in busy[:2]:
                deployment.network.throttles.add(
                    NodeThrottle(dn.name, mbps(40))
                )

        _assert_equivalent(chaos=chaos, client_cls=SmarthClient)


class TestMidTrainKill:
    """A direct ``kill()`` hits a pipeline datanode mid-train: the error
    settle must reconstruct the per-packet recovery state exactly."""

    @pytest.mark.parametrize("at", [0.3, 1.37, 2.6])
    def test_kill_settles_bit_identical(self, at):
        def chaos(env, deployment):
            yield env.timeout(at)
            busy = [
                d
                for d in deployment.datanodes.values()
                if d.active_receivers > 0 and d.node.alive
            ]
            if busy:
                busy[0].kill()

        _assert_equivalent(chaos=chaos)

    def test_kill_settles_smarth_train(self):
        def chaos(env, deployment):
            yield env.timeout(1.1)
            busy = [
                d
                for d in deployment.datanodes.values()
                if d.active_receivers > 0 and d.node.alive
            ]
            if busy:
                busy[0].kill()

        _assert_equivalent(chaos=chaos, client_cls=SmarthClient)

    def test_recovery_still_happens(self):
        def chaos(env, deployment):
            yield env.timeout(1.0)
            busy = [
                d
                for d in deployment.datanodes.values()
                if d.active_receivers > 0 and d.node.alive
            ]
            busy[0].kill()

        result, deployment = _run(0, chaos=chaos)
        assert result.recoveries >= 1
        assert deployment.namenode.file_fully_replicated("/data/f.bin")


class TestPauseMidTrain:
    """Algorithm 4 pauses the SMARTH block being streamed when a sibling
    pipeline fails.  A train must stop after the packet the per-packet
    loop stops after and resume at the same instant.  The kills go
    through the fault injector, as in chaos runs, and the first lands
    exactly on a first-hop landing of the streaming block: the loop
    checks the landed packet before the flag goes up, so it sends one
    more packet."""

    #: The first block's tail, throttled so that block still replicates
    #: while the second one streams.
    SLOW = "dn7"
    PACKETS = 256  # per 16 MB block

    def _run(self, coalesce, kills=(), foreign_at=None):
        env = Environment()
        cluster = build_homogeneous(
            env, SMALL, n_datanodes=9, config=_config(coalesce)
        )
        deployment = HdfsDeployment(cluster)
        deployment.network.throttles.add(NodeThrottle(self.SLOW, mbps(40)))
        deployment.network.stats.keep_samples = not kills
        injector = FaultInjector(deployment)
        for name, at in kills:
            injector.kill_at(name, at)
        if foreign_at is not None:

            def foreign(env):
                yield env.timeout_at(foreign_at)
                cluster.client_host.nic.egress.quote(128 * KB, 20 * MB)

            env.process(foreign(env))
        client = SmarthClient(deployment)
        result = env.run(until=env.process(client.put("/data/f.bin", UPLOAD)))
        return result, deployment

    def _kill_on_landing(self, k):
        """Kill the first block's tail when packet ``k`` of block 1001
        lands at its first datanode (per the undisturbed run)."""
        result, deployment = self._run(1)
        assert result.pipelines[0][-1] == self.SLOW
        landings = sorted(
            s.end for s in deployment.network.stats.samples if s.src == "client"
        )
        return self.SLOW, landings[self.PACKETS + k]

    def _assert_equivalent(self, kills, foreign_at=None):
        legacy = _observables(*self._run(1, kills, foreign_at))
        train = _observables(*self._run(0, kills, foreign_at))
        for key in legacy:
            assert train[key] == legacy[key], f"{key} diverged from legacy"

    def _record(self, monkeypatch, method, record):
        """Wrap ``PacketTrain.<method>`` to call ``record(train)`` first."""
        original = getattr(PacketTrain, method)

        def recorded(train, *args):
            record(train)
            return original(train, *args)

        monkeypatch.setattr(PacketTrain, method, recorded)

    def _resume_instant(self, monkeypatch, kill):
        resumed = []
        self._record(monkeypatch, "resume", lambda t: resumed.append(t.env.now))
        self._run(0, (kill,))
        monkeypatch.undo()
        assert len(resumed) == 1
        return resumed[0]

    @pytest.mark.parametrize("k", [0, 3, 40])
    def test_kill_on_a_landing_pauses_after_the_next_packet(self, monkeypatch, k):
        kill = self._kill_on_landing(k)
        held = []
        self._record(
            monkeypatch, "_fire",
            lambda t: t.held and held.append((t.block.block_id, t._K)),
        )
        self._assert_equivalent((kill,))
        assert held == [(1001, k + 2)]

    def test_foreign_quote_after_the_resume(self, monkeypatch):
        """A held train keeps its channels' guards through the resume, so
        a foreign transfer on the client's NIC right after it chains
        behind the resumed packets as it does behind the loop's."""
        kill = self._kill_on_landing(3)
        resumed = self._resume_instant(monkeypatch, kill)
        self._assert_equivalent((kill,), foreign_at=resumed + 0.01)

    def test_held_pipeline_fails_before_the_resume(self, monkeypatch):
        """The held block's own pipeline fails while the client services
        the sibling: the train settles as held (nothing being taken) and
        the resend after the drain goes packet by packet."""
        kill = self._kill_on_landing(3)
        resumed = self._resume_instant(monkeypatch, kill)
        result, _ = self._run(0)
        second = (result.pipelines[1][1], (kill[1] + resumed) / 2)
        settled = []
        self._record(
            monkeypatch, "_on_error",
            lambda t: settled.append((t.block.block_id, t.held)),
        )
        self._assert_equivalent((kill, second))
        assert (1001, True) in settled


def test_settled_trains_die_by_reference_counting(monkeypatch):
    """No reference cycle keeps a train alive: with the cyclic collector
    off, the packet trains of a SMARTH upload, the read trains and their
    streams of reading the file back, and those of a second read whose
    source is killed mid-block are freed by the time each call returns."""
    written, trains, streams = [], [], []
    start = PacketTrain.start
    monkeypatch.setattr(
        PacketTrain,
        "start",
        lambda train: (written.append(weakref.ref(train)), start(train))[1],
    )
    join = ReadTrain._join

    def recording_join(train, stream):
        if not any(ref() is train for ref in trains):
            trains.append(weakref.ref(train))
        streams.append(weakref.ref(stream))
        return join(train, stream)

    monkeypatch.setattr(ReadTrain, "_join", recording_join)
    env = Environment()
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=_config(0))
    deployment = HdfsDeployment(cluster)
    enabled = gc.isenabled()
    gc.disable()
    try:
        put = SmarthClient(deployment).put("/data/f.bin", UPLOAD)
        env.run(until=env.process(put))
        env.run(until=env.process(HdfsReader(deployment).get("/data/f.bin")))
        read = len(streams)
        first = deployment.namenode.blocks.info(
            deployment.namenode.namespace.get("/data/f.bin").blocks[0].block_id
        )
        source = deployment.ranked_replicas(
            first.block,
            client="killed",
            node=cluster.client_host,
            seed=deployment.config.seed ^ 0x8EAD,
        )[0]
        FaultInjector(deployment).kill_at(source, at=env.now + 0.05)
        reader = HdfsReader(deployment, name="killed")
        result = env.run(until=env.process(reader.get("/data/f.bin")))
        alive = [ref() for ref in (*written, *trains, *streams)]
    finally:
        if enabled:
            gc.enable()
    assert len(written) == 4 and read == 4
    assert result.sources[0][1] != source  # resumed on another replica
    assert len(streams) == 9  # four blocks, one of them resumed
    assert alive == [None] * len(alive)
    assert deployment.read_trains == {}


def _declines(deployment) -> dict:
    """The deployment's decline counters, by rendered name."""
    return {
        counter.name: counter.value
        for counter in deployment.metrics.counters()
        if "declined{" in counter.name
    }


@pytest.mark.parametrize("writers", [1, 2])
def test_overlapping_uploads_count_co_resident_declines(writers):
    """On three datanodes every SMARTH pipeline holds all three, so two
    uploads at once meet each other's receivers on every block and fall
    back to the per-packet loop; the traced deployment counts why."""
    env = Environment()
    cluster = build_homogeneous(
        env, SMALL, n_datanodes=3, config=_config(0), n_extra_clients=1
    )
    deployment = SmarthDeployment(cluster, observe=True)
    hosts = [cluster.client_host, *cluster.extra_client_hosts][:writers]
    uploads = [
        env.process(SmarthClient(deployment, host=host, name=f"c{i}").put(
            f"/data/f{i}.bin", 32 * MB
        ))
        for i, host in enumerate(hosts)
    ]
    for upload in uploads:
        env.run(until=upload)
    conducted = deployment.metrics.counter_value("trains_conducted")
    if writers == 1:
        assert (_declines(deployment), conducted) == ({}, 2)
    else:
        assert _declines(deployment) == {"train_declined{reason=co_resident}": 4}
        assert conducted == 0


class TestPredicateDeclines:
    """`plan_train` must stand down whenever coalescing could not be
    proven equivalent; these paths fall back to the per-packet loop."""

    def _fresh_pipeline(self, coalesce=0, observe=False):
        env = Environment()
        cluster = build_homogeneous(
            env, SMALL, n_datanodes=9, config=_config(coalesce)
        )
        return env, cluster, HdfsDeployment(cluster, observe=observe)

    def _open(
        self, deployment, client_node, plan_size=16 * MB, path="/t.bin",
        excluded=(),
    ):
        from repro.hdfs.client.output_stream import start_producer
        from repro.hdfs.client.responder import PacketResponder
        from repro.hdfs.client.send import BlockProgress

        env = deployment.env
        namenode = deployment.namenode
        plans, production = start_producer(
            env, client_node, plan_size, deployment.config.hdfs
        )
        plan = plans[0]

        def setup(env):
            yield from namenode.create_file("client", path)
            result = yield from namenode.add_block(
                "client", path, plan.size, excluded=set(excluded)
            )
            return result

        proc = env.process(setup(env))
        env.run(until=proc)
        result = proc.value
        handle = deployment.open_pipeline(
            result.block,
            result.targets,
            client_node,
            buffer_bytes=SOCKET_BUFFER,
        )
        responder = PacketResponder(env, result.block, handle.ack_in)
        return handle, responder, BlockProgress(plan, production)

    def _plan(self, deployment, client_node):
        handle, responder, progress = self._open(deployment, client_node)
        return plan_train(deployment, client_node, handle, responder, progress)

    def _serve(self, deployment, source, reader="reader"):
        proc = deployment.env.process(source.open_serve(1, reader))
        deployment.env.run(until=proc)
        return proc.value

    def _plan_read(self, deployment, client_node):
        """Ask the read planner for a block on a datanode no write uses."""
        from repro.hdfs.protocol import Block

        source = next(
            dn for dn in deployment.datanodes.values() if not dn._active
        )
        serve = self._serve(deployment, source)
        block = Block(1, "/r.bin", 0, 16 * MB)
        return plan_read_train(deployment, source, client_node, serve, block)

    def test_declines_when_coalescing_disabled(self):
        env, cluster, deployment = self._fresh_pipeline(coalesce=1)
        assert self._plan(deployment, cluster.client_host) is None

    def test_scheduled_disturbance_plans_both_trains(self):
        """A scheduled kill leaves both trains on the road: write trains
        pause, settle and resume as the per-packet loop does, and a read
        train settles a kill where the per-chunk loop notices it."""
        env, cluster, deployment = self._fresh_pipeline()
        deployment.scheduled_disturbances.append(1.0)
        assert self._plan(deployment, cluster.client_host) is not None
        assert self._plan_read(deployment, cluster.client_host) is not None

    def test_plans_train_on_clean_pipeline(self):
        env, cluster, deployment = self._fresh_pipeline()
        train = self._plan(deployment, cluster.client_host)
        assert train is not None
        assert train.sent_count == 0
        assert len(train.channels) >= 3
        assert self._plan_read(deployment, cluster.client_host) is not None

    def test_injector_scheduled_kill_plans_both_trains(self):
        """An injector's scheduled kill registers a disturbance, and both
        the write and the read planner admit the block."""
        env, cluster, deployment = self._fresh_pipeline()
        FaultInjector(deployment).kill_at("dn1", at=5.0)
        assert deployment.scheduled_disturbances == [5.0]
        assert self._plan(deployment, cluster.client_host) is not None
        assert self._plan_read(deployment, cluster.client_host) is not None

    @pytest.mark.parametrize(
        "reason", ["pipeline_failed", "loopback", "dead_hop", "guard"]
    )
    def test_write_declines_count_their_reason(self, reason):
        env, cluster, deployment = self._fresh_pipeline(observe=True)
        client_node = cluster.client_host
        excluded = ()
        if reason == "guard":
            # A train from the same client on other datanodes guards the
            # client's egress.
            first = self._open(deployment, client_node, path="/u.bin")
            excluded = first[0].targets
        handle, responder, progress = self._open(
            deployment, client_node, excluded=excluded
        )
        if reason == "pipeline_failed":
            handle.receivers[0].datanode.kill()
        elif reason == "loopback":
            client_node = handle.receivers[0].host
        elif reason == "dead_hop":
            handle.receivers[-1].datanode.node.fail()
        else:
            plan_train(deployment, client_node, *first)._arm()
        train = plan_train(deployment, client_node, handle, responder, progress)
        assert train is None
        assert _declines(deployment) == {f"train_declined{{reason={reason}}}": 1}

    @pytest.mark.parametrize(
        "reason", ["dead_source", "co_resident", "foreign_serve", "guard"]
    )
    def test_read_declines_count_their_reason(self, reason):
        from repro.hdfs.protocol import Block

        env, cluster, deployment = self._fresh_pipeline(observe=True)
        source = deployment.datanode("dn0")
        reader = cluster.client_host
        if reason == "co_resident":
            handle, _, _ = self._open(deployment, reader)
            source = handle.receivers[0].datanode
        elif reason == "foreign_serve":
            self._serve(deployment, source, reader="other")
        elif reason == "guard":
            # A write train into the reader's host guards its ingress.
            write = self._open(deployment, reader, excluded=[source.name])
            plan_train(deployment, reader, *write)._arm()
            reader = write[0].receivers[0].host
        serve = self._serve(deployment, source)
        if reason == "dead_source":
            source.node.fail()
        block = Block(1, "/r.bin", 0, 16 * MB)
        train = plan_read_train(deployment, source, reader, serve, block)
        assert train is None
        assert _declines(deployment) == {
            f"read_train_declined{{reason={reason}}}": 1
        }

    def test_injector_scheduled_throttles_plan_trains(self):
        """A throttle-only schedule is no disturbance: the train replays
        the throttle-table change when it lands."""
        env, cluster, deployment = self._fresh_pipeline()
        injector = FaultInjector(deployment)
        injector.throttle_at("dn1", 50.0, at=5.0)
        injector.unthrottle_at("dn1", at=6.0)
        assert not deployment.scheduled_disturbances
        assert self._plan(deployment, cluster.client_host) is not None
