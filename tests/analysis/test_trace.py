"""Tests for the event journal and its protocol emission points."""

import pytest

from repro.analysis.trace import Journal, TraceEvent
from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.sim import Environment
from repro.units import KB, MB


class TestJournal:
    def test_emit_and_read(self):
        journal = Journal()
        journal.emit(1.0, "k1", "s1", a=1)
        journal.emit(2.0, "k2", "s2")
        assert len(journal) == 2
        assert journal.events(kind="k1")[0].details == {"a": 1}
        assert [e.kind for e in journal] == ["k1", "k2"]
        assert journal.count("k2") == 1

    def test_filters(self):
        journal = Journal()
        for t in range(5):
            journal.emit(float(t), "tick", f"s{t % 2}")
        assert len(journal.events(subject="s0")) == 3
        assert [e.time for e in journal.events(kind="tick", subject="s1")] == [
            1.0,
            3.0,
        ]

    def test_event_str(self):
        e = TraceEvent(1.0, "kind", "subj", {"x": 2})
        assert "kind" in str(e) and "x=2" in str(e)


class TestProtocolEmission:
    @pytest.fixture()
    def deployment(self):
        env = Environment()
        cfg = SimulationConfig().with_hdfs(block_size=2 * MB, packet_size=64 * KB)
        cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=cfg)
        return env, HdfsDeployment(cluster)

    def test_upload_leaves_a_trace(self, deployment):
        env, dep = deployment
        client = dep.client()
        env.run(until=env.process(client.put("/f", 4 * MB)))
        journal = dep.journal
        assert journal.count("add_block") == 2
        assert journal.count("pipeline_open") == 2
        # Every pipeline datanode finalizes its replica locally.
        assert journal.count("block_stored") == 6
        assert journal.count("file_complete") == 1

    def test_failure_and_recovery_traced(self, deployment):
        env, dep = deployment

        def killer(env):
            yield env.timeout(0.05)
            busy = [
                d
                for d in dep.datanodes.values()
                if d.active_receivers > 0 and d.node.alive
            ]
            if busy:
                busy[0].kill()

        env.process(killer(env))
        client = dep.client()
        env.run(until=env.process(client.put("/f", 6 * MB)))
        journal = dep.journal
        assert journal.count("datanode_killed") == 1
        assert journal.count("pipeline_recovered") >= 1
        recovered = journal.events(kind="pipeline_recovered")[0]
        assert recovered.details["generation"] >= 1

    def test_events_are_time_ordered(self, deployment):
        env, dep = deployment
        client = dep.client()
        env.run(until=env.process(client.put("/f", 4 * MB)))
        times = [e.time for e in dep.journal]
        assert times == sorted(times)
