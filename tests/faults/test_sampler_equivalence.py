"""The dormant buffer sampler records exactly what the polling one did.

:class:`~repro.faults.invariants.InvariantMonitor` sleeps while no
datanode has a receiver open and resumes on the same float tick grid when
one opens.  Every chaos run here carries both samplers on one deployment:
the monitor's, and the original always-polling loop from
``reference_sampler.py``.  They must record the same ``buffer_bound``
checks at the same simulated times, with the same violations, across
write and degraded-read schedules, both protocols, and the per-packet
path (``coalesce_packets=1``).  A tightened bound makes violations
actually occur, so their messages are compared too.
"""

from __future__ import annotations

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.faults import (
    ChaosSchedule,
    InvariantMonitor,
    InvariantRecord,
    generate_read_schedule,
    generate_schedule,
    run_schedule,
)
from repro.faults import campaign as campaign_module
from repro.hdfs import HdfsClient, HdfsDeployment
from repro.sim import Environment
from repro.smarth import SmarthClient
from repro.units import KB, MB

from tests.faults.reference_sampler import PollingSampler

SCALE = 0.25
WRITE_SEEDS = range(0, 6)
READ_SEEDS = range(0, 4)
LEGACY_SEEDS = range(0, 2)
PROTOCOLS = ("hdfs", "smarth")


class TimedRecord(InvariantRecord):
    """An invariant record that also logs when each check happened."""

    def __init__(self, name: str, env: Environment):
        super().__init__(name)
        self.env = env
        self.times: list[float] = []

    def check(self, ok: bool, message: str) -> None:
        self.times.append(self.env.now)
        super().check(ok, message)


class PairedMonitor(InvariantMonitor):
    """A monitor with the polling reference sampler riding along."""

    #: Every monitor built while the class is patched in, in build order.
    built: list["PairedMonitor"] = []
    #: ``None`` keeps the monitor's default bound.
    bound: int | None = None

    def __init__(self, deployment, **kwargs):
        super().__init__(deployment, **kwargs)
        # The sampler process has not run yet: it picks up this bound
        # and this record.
        if self.bound is not None:
            self.buffer_bound_bytes = self.bound
        self.records["buffer_bound"] = TimedRecord("buffer_bound", self.env)
        self.reference = PollingSampler(
            deployment,
            TimedRecord("buffer_bound", self.env),
            self.buffer_bound_bytes,
        )
        self.built.append(self)

    def stop(self) -> None:
        super().stop()
        self.reference.stop()


@pytest.fixture()
def paired(monkeypatch):
    monkeypatch.setattr(PairedMonitor, "built", [])
    monkeypatch.setattr(campaign_module, "InvariantMonitor", PairedMonitor)
    return PairedMonitor


def assert_same_checks(monitor: PairedMonitor) -> int:
    dormant = monitor.records["buffer_bound"]
    polling = monitor.reference.records["buffer_bound"]
    assert dormant.times == polling.times
    assert dormant.checks == polling.checks
    assert dormant.violations == polling.violations
    return dormant.checks


def run_paired(paired, kind: str, subseed: int, protocol: str) -> PairedMonitor:
    generate = generate_schedule if kind == "write" else generate_read_schedule
    run_schedule(generate(subseed, scale=SCALE), protocol)
    (monitor,) = paired.built
    return monitor


CASES = [
    ("write", seed, protocol)
    for seed in WRITE_SEEDS
    for protocol in PROTOCOLS
] + [("read", seed, protocol) for seed in READ_SEEDS for protocol in PROTOCOLS]


@pytest.mark.parametrize(
    "kind,subseed,protocol", CASES, ids=[f"{k}-{s}-{p}" for k, s, p in CASES]
)
def test_dormant_sampler_matches_polling(paired, kind, subseed, protocol):
    assert assert_same_checks(run_paired(paired, kind, subseed, protocol)) > 0


@pytest.mark.parametrize("subseed", LEGACY_SEEDS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_dormant_sampler_matches_polling_per_packet(
    paired, monkeypatch, subseed, protocol
):
    original = ChaosSchedule.config
    monkeypatch.setattr(
        ChaosSchedule,
        "config",
        lambda self: original(self).with_hdfs(coalesce_packets=1),
    )
    assert assert_same_checks(run_paired(paired, "write", subseed, protocol)) > 0


@pytest.mark.parametrize("subseed", (1, 2))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_violations_match_under_a_tight_bound(
    paired, monkeypatch, subseed, protocol
):
    """Any buffered packet breaks a one-byte bound: both samplers must
    flag the same receivers at the same ticks, message for message.
    (Write schedules only: a read campaign's undisturbed ingest never
    holds a packet at a tick.)"""
    monkeypatch.setattr(PairedMonitor, "bound", 1)
    monitor = run_paired(paired, "write", subseed, protocol)
    assert_same_checks(monitor)
    assert monitor.records["buffer_bound"].violations


def _tight_bound_upload(client_cls, coalesce: int):
    """One undisturbed 32 MB upload watched at a one-byte buffer bound."""
    env = Environment()
    config = SimulationConfig().with_hdfs(
        block_size=16 * MB, packet_size=64 * KB, coalesce_packets=coalesce
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = HdfsDeployment(cluster)
    monitor = InvariantMonitor(deployment)
    monitor.buffer_bound_bytes = 1  # the sampler has not run yet
    client = client_cls(deployment)
    env.run(until=env.process(client.put("/data/f.bin", 32 * MB)))
    monitor.stop()
    return monitor.records["buffer_bound"], env.events_processed


@pytest.mark.parametrize(
    "client_cls", [HdfsClient, SmarthClient], ids=["hdfs", "smarth"]
)
def test_train_buffers_match_per_packet_under_a_tight_bound(client_cls):
    """A receiver under a packet train holds no buffer tokens; it answers
    from the train's token grants and releases, so the sampler records
    what it records on the per-packet path, message for message."""
    train, train_events = _tight_bound_upload(client_cls, 0)
    legacy, legacy_events = _tight_bound_upload(client_cls, 1)
    assert train_events * 3 < legacy_events  # the trains did run
    assert train.violations
    assert (train.checks, train.violations) == (
        legacy.checks,
        legacy.violations,
    )


def _idle_deployment() -> HdfsDeployment:
    env = Environment()
    config = SimulationConfig().with_hdfs(block_size=2 * MB, packet_size=64 * KB)
    cluster = build_homogeneous(env, SMALL, n_datanodes=5, config=config)
    return HdfsDeployment(cluster)


def test_idle_cluster_schedules_no_sampler_tick():
    """With no upload the monitor costs its sampler's start event and
    nothing else over 600 simulated seconds (the polling loop paid
    12,000 ticks)."""
    bare = _idle_deployment()
    bare.env.run(until=600)
    watched = _idle_deployment()
    monitor = InvariantMonitor(watched)
    watched.env.run(until=600)
    assert watched.env.events_processed - bare.env.events_processed == 1
    assert monitor.records["buffer_bound"].checks == 0
    assert monitor._sampler.is_alive


def test_sampler_wakes_on_the_polling_grid():
    """An upload started after a long idle stretch is checked at the
    same ticks the polling loop would have used."""
    deployment = _idle_deployment()
    env = deployment.env
    monitor = InvariantMonitor(deployment)
    monitor.records["buffer_bound"] = TimedRecord("buffer_bound", env)
    reference = PollingSampler(
        deployment,
        TimedRecord("buffer_bound", env),
        monitor.buffer_bound_bytes,
    )
    env.run(until=37.123)
    env.run(until=env.process(deployment.client().put("/late.bin", 8 * MB)))
    env.run(until=env.now + 5.0)
    monitor.stop()
    reference.stop()
    checks = monitor.records["buffer_bound"]
    assert checks.checks > 0
    assert checks.times == reference.records["buffer_bound"].times


def test_stop_detaches_the_receiver_hook():
    deployment = _idle_deployment()
    env = deployment.env
    monitor = InvariantMonitor(deployment)
    hook = monitor._on_receiver_open
    datanodes = list(deployment.datanodes.values())
    assert all(dn.on_receiver_open == hook for dn in datanodes)
    env.run(until=1.0)  # the sampler is asleep
    monitor.stop()
    monitor.stop()  # idempotent
    assert all(dn.on_receiver_open is None for dn in datanodes)

    opened: list[str] = []
    for dn in datanodes:
        dn.on_receiver_open = lambda name=dn.name: opened.append(name)
    sentinel = env.event()
    monitor._wake = sentinel
    env.run(until=env.process(deployment.client().put("/after.bin", 4 * MB)))
    assert opened, "the upload opened no receiver"
    assert monitor._wake is sentinel and not sentinel.triggered
    assert monitor.records["buffer_bound"].checks == 0
