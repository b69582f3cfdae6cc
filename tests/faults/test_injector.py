"""Unit tests for the fault injector."""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.faults import FaultInjector
from repro.hdfs import HdfsDeployment
from repro.sim import Environment
from repro.units import KB, MB


@pytest.fixture()
def setup():
    env = Environment()
    cfg = SimulationConfig().with_hdfs(block_size=2 * MB, packet_size=64 * KB)
    cluster = build_homogeneous(env, SMALL, n_datanodes=5, config=cfg)
    deployment = HdfsDeployment(cluster)
    return env, deployment


class TestKillAt:
    def test_kill_at_marks_dead(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_at("dn0", at=2.0)
        env.run(until=5)
        assert not deployment.datanode("dn0").node.alive
        assert injector.killed() == ("dn0",)
        assert injector.events[0].at == pytest.approx(2.0)

    def test_kill_unknown_name_raises_early(self, setup):
        _, deployment = setup
        injector = FaultInjector(deployment)
        with pytest.raises(KeyError):
            injector.kill_at("ghost", at=1.0)

    def test_kill_already_dead_is_noop(self, setup):
        env, deployment = setup
        deployment.datanode("dn0").kill()
        injector = FaultInjector(deployment)
        injector.kill_at("dn0", at=1.0)
        env.run(until=5)
        assert injector.killed() == ()


class TestKillBusy:
    def test_noop_when_nothing_active(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_busy_at(at=1.0)
        env.run(until=5)
        assert injector.killed() == ()
        assert injector.events[0].kind == "kill_busy_noop"

    def test_kills_active_node_during_upload(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_busy_at(at=0.05)
        client = deployment.client()
        result = env.run(until=env.process(client.put("/f", 8 * MB)))
        assert len(injector.killed()) == 1
        assert result.recoveries >= 1


class TestEagerValidation:
    """Every scheduler must reject unknown datanode names at call time,
    not when the fault fires (regression: revive_at/unthrottle_at used
    to fail silently inside the injection process)."""

    def test_revive_unknown_name_raises_early(self, setup):
        _, deployment = setup
        injector = FaultInjector(deployment)
        with pytest.raises(KeyError):
            injector.revive_at("ghost", at=1.0)

    def test_unthrottle_unknown_name_raises_early(self, setup):
        _, deployment = setup
        injector = FaultInjector(deployment)
        with pytest.raises(KeyError):
            injector.unthrottle_at("ghost", at=1.0)

    def test_throttle_unknown_name_raises_early(self, setup):
        _, deployment = setup
        injector = FaultInjector(deployment)
        with pytest.raises(KeyError):
            injector.throttle_at("ghost", 50.0, at=1.0)


class TestKillBusyEdgeCases:
    def test_pick_beyond_candidates_clamps_to_last(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_busy_at(at=0.05, pick=999)
        client = deployment.client()
        result = env.run(until=env.process(client.put("/f", 8 * MB)))
        assert len(injector.killed()) == 1
        assert result.recoveries >= 1

    def test_double_kill_is_idempotent(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_at("dn0", at=1.0)
        injector.kill_at("dn0", at=2.0)
        env.run(until=5)
        assert injector.killed() == ("dn0",)
        assert not deployment.datanode("dn0").node.alive


class TestRevive:
    def test_revive_restores_liveness(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.kill_at("dn0", at=1.0)
        injector.revive_at("dn0", at=100.0)
        dead_after = deployment.namenode.datanodes.dead_after
        env.run(until=1.0 + dead_after * 2)
        assert "dn0" not in deployment.namenode.datanodes.live_datanodes()
        env.run(until=110)
        assert deployment.datanode("dn0").node.alive
        assert "dn0" in deployment.namenode.datanodes.live_datanodes()

    def test_revive_alive_node_is_noop(self, setup):
        env, deployment = setup
        injector = FaultInjector(deployment)
        injector.revive_at("dn0", at=1.0)
        env.run(until=5)
        assert all(e.kind != "revive" for e in injector.events)
