"""Unit tests for datanode liveness tracking."""

import pytest

from repro.config import HdfsConfig
from repro.hdfs import DatanodeManager
from repro.sim import Environment

from .reference_liveness import monitor_loop


@pytest.fixture()
def env():
    return Environment()


@pytest.fixture()
def manager(env):
    return DatanodeManager(env, HdfsConfig(heartbeat_interval=3.0, dead_node_heartbeats=2))


class TestRegistration:
    def test_register(self, manager):
        d = manager.register("dn0", "rack0")
        assert d.alive
        assert manager.live_datanodes() == ("dn0",)
        assert manager.rack_of("dn0") == "rack0"

    def test_duplicate_registration_rejected(self, manager):
        manager.register("dn0", "rack0")
        with pytest.raises(ValueError):
            manager.register("dn0", "rack1")

    def test_unknown_datanode(self, manager):
        with pytest.raises(KeyError):
            manager.descriptor("ghost")


class TestLiveness:
    def test_monitor_expires_silent_nodes(self, env, manager):
        manager.register("dn0", "rack0")
        manager.register("dn1", "rack0")
        env.process(manager.monitor())

        def beats(env, manager):
            # dn0 keeps beating; dn1 goes silent.
            for _ in range(10):
                yield env.timeout(3.0)
                manager.heartbeat("dn0")

        env.process(beats(env, manager))
        env.run(until=30)
        assert manager.is_alive("dn0")
        assert not manager.is_alive("dn1")
        assert manager.live_datanodes() == ("dn0",)

    def test_heartbeat_revives(self, env, manager):
        manager.register("dn0", "rack0")
        manager.mark_dead("dn0")
        assert not manager.is_alive("dn0")
        manager.heartbeat("dn0")
        assert manager.is_alive("dn0")

    def test_dead_after_uses_config(self, manager):
        assert manager.dead_after == 6.0

    def test_all_names_includes_dead(self, manager):
        manager.register("dn0", "rack0")
        manager.mark_dead("dn0")
        assert manager.all_names() == ("dn0",)
        assert len(manager) == 1

    def test_expiry_tick_is_armed_where_the_loop_armed_it(self):
        """A reader armed after the monitor planned an expiry, but more
        than an interval before it, reads before that tick: the polling
        loop created each tick's timer one interval ahead."""
        seen = {}
        for name, start in (("analytic", DatanodeManager.monitor),
                            ("loop", monitor_loop)):
            env = Environment()
            manager = DatanodeManager(
                env, HdfsConfig(heartbeat_interval=3.0, dead_node_heartbeats=2)
            )
            manager.register("dn0", "rack0")  # silent: expires at t=9
            env.process(start(manager))

            def reader(env, manager, out):
                yield env.timeout(1.0)
                yield env.timeout(8.0)
                out.append(manager.is_alive("dn0"))

            out = []
            env.process(reader(env, manager, out))
            env.run(until=10)
            seen[name] = (out, manager.is_alive("dn0"))
        assert seen["analytic"] == seen["loop"] == ([True], False)

    def test_second_monitor_refused(self, env, manager):
        env.process(manager.monitor())
        env.run(until=1)
        with pytest.raises(RuntimeError):
            env.process(manager.monitor())
            env.run(until=2)

    def test_latency_must_stay_below_the_interval(self, manager):
        manager.register("dn0", "rack0")
        with pytest.raises(ValueError):
            manager.start_beats("dn0", latency=3.0)
