"""Unit tests for the heartbeat speed reporter."""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.sim import Environment
from repro.smarth import (
    SmarthDeployment,
    SpeedRecords,
    SpeedSample,
    speed_reporter,
)
from repro.units import KB, MB


@pytest.fixture()
def setup():
    env = Environment()
    cfg = SimulationConfig().with_hdfs(heartbeat_interval=1.0)
    cluster = build_homogeneous(env, SMALL, n_datanodes=3, config=cfg)
    deployment = HdfsDeployment(cluster, enable_replication_monitor=False)
    return env, deployment


class TestReporter:
    def test_dirty_records_delivered_on_next_beat(self, setup):
        env, deployment = setup
        records = SpeedRecords()
        env.process(
            speed_reporter(deployment.namenode, "c1", records, interval=1.0)
        )

        def feed(env):
            yield env.timeout(0.5)
            records.record(SpeedSample("dn0", 1000, 1.0, at=env.now))

        env.process(feed(env))
        env.run(until=0.9)
        assert not deployment.namenode.speeds.has_records("c1")
        env.run(until=1.5)
        assert deployment.namenode.speeds.records_for("c1") == {
            "dn0": pytest.approx(1000.0)
        }

    def test_clean_records_not_resent(self, setup):
        env, deployment = setup
        records = SpeedRecords()
        records.record(SpeedSample("dn0", 1000, 1.0, at=0))
        sent = []
        original = deployment.namenode.client_heartbeat

        def counting(client, payload):
            sent.append(payload)
            yield from original(client, payload)

        deployment.namenode.client_heartbeat = counting
        env.process(
            speed_reporter(deployment.namenode, "c1", records, interval=1.0)
        )
        env.run(until=5.5)
        assert len(sent) == 1  # one dirty flush, then silence

    def test_updates_trigger_new_reports(self, setup):
        env, deployment = setup
        records = SpeedRecords()
        env.process(
            speed_reporter(deployment.namenode, "c1", records, interval=1.0)
        )

        def feed(env):
            for i in range(3):
                yield env.timeout(2.0)
                records.record(
                    SpeedSample("dn0", 1000 * (i + 1), 1.0, at=env.now)
                )

        env.process(feed(env))
        env.run(until=8)
        final = deployment.namenode.speeds.records_for("c1")["dn0"]
        # EWMA of 1000, 2000, 3000 = 2250.
        assert final == pytest.approx(2250.0)


class TestReporterStop:
    def test_interrupt_journals_the_stop(self, setup):
        env, deployment = setup
        records = SpeedRecords()
        proc = env.process(
            speed_reporter(deployment.namenode, "c1", records, interval=1.0)
        )

        def stopper(env):
            yield env.timeout(2.5)
            proc.interrupt("upload finished")

        env.process(stopper(env))
        env.run(until=5.0)
        stops = deployment.namenode.journal.events(kind="reporter_stopped")
        assert len(stops) == 1
        (stop,) = stops
        assert stop.subject == "client:c1"
        assert stop.details["client"] == "c1"
        assert stop.details["cause"] == "upload finished"
        assert stop.time == pytest.approx(2.5)
        assert not proc.is_alive

    def test_upload_completion_stops_the_heartbeat_loop(self):
        """End-to-end: the client's reporter dies with the upload.

        Without the stop, the heartbeat loop keeps the environment's
        queue non-empty forever; with it, the run drains and the journal
        records exactly one stop for the client.
        """
        env = Environment()
        cfg = SimulationConfig().with_hdfs(block_size=2 * MB, packet_size=256 * KB)
        cluster = build_homogeneous(env, SMALL, n_datanodes=6, config=cfg)
        deployment = SmarthDeployment(cluster, enable_replication_monitor=False)
        client = deployment.client()
        result = env.run(until=env.process(client.put("/f", 4 * MB)))

        stops = deployment.journal.events(kind="reporter_stopped")
        assert len(stops) == 1
        assert stops[0].details["client"] == client.name
        # The stop lands the instant the upload completes.
        assert stops[0].time == pytest.approx(result.end)
        assert not client._reporter.is_alive
        # Heap hygiene at upload completion: the only live entries left
        # are the cluster's own machinery (datanode heartbeats are
        # analytic, the liveness monitor arms a timer only where a node
        # expires) and the reporter's just-finished process event — not a
        # backlog of abandoned client timers.  The reporter's next beat
        # and every per-packet race loser were cancelled, so the live
        # count is bounded by cluster size.
        assert len(env) <= 6 + 2
