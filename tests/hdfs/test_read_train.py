"""On-vs-off equivalence of read-train coalescing.

``coalesce_reads=0`` (the default) collapses pristine block reads into
one analytic :class:`~repro.hdfs.train.ReadTrain`; ``coalesce_reads=1``
runs the legacy per-chunk prefetch loop.  These tests pin the two modes
to *identical* observable history — durations, sources, the full
journal, NIC/disk byte counters and flow samples — across randomized
sizes, seeds and cluster shapes, including mixed read/write workloads
where the train's channel guards must chain foreign traffic exactly
like legacy in-flight chunks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.sim import Environment
from repro.smarth import SmarthDeployment
from repro.units import KB, MB

BLOCK = 2 * MB
PACKET = 64 * KB


def run_read(
    seed: int,
    size: int,
    coalesce: int,
    n_datanodes: int = 9,
    smarth: bool = False,
    mixed: bool = False,
):
    """One write-then-read run; returns its full observable fingerprint."""
    env = Environment()
    cfg = SimulationConfig(seed=seed).with_hdfs(
        block_size=BLOCK, packet_size=PACKET, coalesce_reads=coalesce
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=n_datanodes, config=cfg)
    deployment = (
        SmarthDeployment(cluster) if smarth else HdfsDeployment(cluster)
    )
    deployment.network.stats.keep_samples = True
    client = deployment.client()
    env.run(until=env.process(client.put("/f", size)))

    mixer = None
    if mixed:
        # A concurrent writer shares the reader's host NIC and quotes the
        # datanode disks the read train is guarding.
        writer = deployment.client(name="mixer")
        mixer = env.process(writer.put("/mix", size), name="mixer")

    reader = HdfsReader(deployment)
    result = env.run(until=env.process(reader.get("/f")))
    if mixer is not None and not mixer.triggered:
        # Counters are batch-applied at block settles, so only the
        # *final* state is comparable — let the mixer drain first.
        env.run(until=mixer)
    nodes = sorted(
        deployment.cluster.datanode_hosts + [deployment.cluster.client_host],
        key=lambda n: n.name,
    )
    return {
        "duration": result.duration,
        "end": result.end,
        "sources": tuple(result.sources),
        "journal": deployment.journal.events(),
        "nic": [
            (n.name, n.nic.bytes_sent, n.nic.bytes_received) for n in nodes
        ],
        "disk": [(n.name, n.disk.bytes_read) for n in nodes],
        "flows": sorted(
            deployment.network.stats.samples,
            key=lambda s: (s.start, s.end, s.src, s.dst, s.size),
        ),
    }


def assert_equivalent(seed, size, **kwargs) -> None:
    fast = run_read(seed, size, coalesce=0, **kwargs)
    legacy = run_read(seed, size, coalesce=1, **kwargs)
    for key in fast:
        assert fast[key] == legacy[key], f"{key} diverges: " + repr(
            (fast[key], legacy[key])
        )


class TestEquivalenceFixed:
    def test_single_block(self):
        assert_equivalent(seed=0, size=BLOCK)

    def test_ragged_tail(self):
        assert_equivalent(seed=1, size=2 * BLOCK + 256 * KB + 1)

    def test_sub_packet_file(self):
        assert_equivalent(seed=2, size=4 * KB)

    def test_smarth_written_file(self):
        # SMARTH ingest warms the speed registry, so the ranked candidate
        # order differs from plain locality — both modes must follow it.
        assert_equivalent(seed=3, size=6 * MB, smarth=True)

    def test_mixed_read_write(self):
        assert_equivalent(seed=4, size=6 * MB, mixed=True)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    blocks=st.integers(min_value=1, max_value=4),
    tail=st.integers(min_value=0, max_value=BLOCK - 1),
    n_datanodes=st.integers(min_value=4, max_value=10),
)
def test_equivalence_property(seed, blocks, tail, n_datanodes):
    size = (blocks - 1) * BLOCK + (tail or BLOCK)
    assert_equivalent(seed=seed, size=size, n_datanodes=n_datanodes)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    smarth=st.booleans(),
)
def test_mixed_equivalence_property(seed, smarth):
    assert_equivalent(seed=seed, size=4 * MB, smarth=smarth, mixed=True)


def test_train_mode_uses_fewer_events():
    """The point of the fast path: same history, far fewer heap events."""

    def events(coalesce: int) -> int:
        env = Environment()
        cfg = SimulationConfig().with_hdfs(
            block_size=BLOCK, packet_size=PACKET, coalesce_reads=coalesce
        )
        cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=cfg)
        deployment = HdfsDeployment(cluster)
        client = deployment.client()
        env.run(until=env.process(client.put("/f", 8 * MB)))
        before = env.events_processed
        reader = HdfsReader(deployment)
        env.run(until=env.process(reader.get("/f")))
        return env.events_processed - before

    assert events(1) >= 1.5 * events(0)


def test_streaming_read_counts():
    """The ``read.streaming`` floor's home: a whole-file read in 8 MB
    blocks, at 64 MB and at 16 MB.  Per size, the exact heap events of
    the read on the per-chunk loop (1) and on read trains (0), one
    duration for both modes, and trains at least 1.5x fewer events
    (57.2x and 47.0x)."""
    pins = {64 * MB: {1: 2_060, 0: 36}, 16 * MB: {1: 517, 0: 11}}
    for size, pinned in pins.items():
        events, durations = {}, set()
        for coalesce in (1, 0):
            env = Environment()
            cfg = SimulationConfig().with_hdfs(
                block_size=8 * MB, packet_size=PACKET, coalesce_reads=coalesce
            )
            cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=cfg)
            deployment = HdfsDeployment(cluster)
            client = deployment.client()
            env.run(until=env.process(client.put("/f", size)))
            before = env.events_processed
            reader = HdfsReader(deployment)
            result = env.run(until=env.process(reader.get("/f")))
            events[coalesce] = env.events_processed - before
            durations.add(result.duration)
        assert events == pinned, size
        assert len(durations) == 1, size
        assert events[1] >= 1.5 * events[0], size
