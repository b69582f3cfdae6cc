"""Integration tests for the background re-replication monitor."""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.sim import Environment
from repro.units import KB, MB


def build(n_datanodes=9, monitor=True):
    env = Environment()
    cfg = SimulationConfig().with_hdfs(
        block_size=2 * MB,
        packet_size=64 * KB,
        heartbeat_interval=1.0,
        dead_node_heartbeats=3,
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=n_datanodes, config=cfg)
    deployment = HdfsDeployment(cluster, enable_replication_monitor=monitor)
    return env, deployment


def upload(env, deployment, size=4 * MB, path="/f"):
    client = deployment.client()
    return env.run(until=env.process(client.put(path, size)))


class TestHealing:
    def test_heals_after_post_write_death(self):
        env, deployment = build()
        result = upload(env, deployment)
        nn = deployment.namenode
        assert nn.file_fully_replicated("/f")

        # Kill one replica holder after the write completed.
        victim = result.pipelines[0][1]
        deployment.datanode(victim).kill()

        # Wait past dead-node detection + one replication round trip.
        env.run(until=env.now + 60)
        assert nn.file_fully_replicated("/f")
        assert deployment.replication_monitor.completed
        # The healed replicas do not live on the dead node.
        for block in nn.namespace.get("/f").blocks:
            assert victim not in nn.blocks.locations(block.block_id)

    def test_no_healing_without_monitor(self):
        env, deployment = build(monitor=False)
        result = upload(env, deployment)
        victim = result.pipelines[0][0]
        deployment.datanode(victim).kill()
        env.run(until=env.now + 60)
        nn = deployment.namenode
        affected = nn.blocks.blocks_on(victim)
        # Replicas on the dead node are never dropped nor rebuilt.
        assert deployment.replication_monitor is None
        assert affected  # bookkeeping still names the dead holder

    def test_new_replica_prefers_fresh_rack(self):
        env, deployment = build()
        upload(env, deployment)
        nn = deployment.namenode
        topo = deployment.network.topology

        victim = nn.namespace.get("/f").blocks[0]
        locations = nn.blocks.locations(victim.block_id)
        deployment.datanode(locations[0]).kill()
        env.run(until=env.now + 60)

        new_locations = nn.blocks.locations(victim.block_id)
        racks = {topo.rack_of(d) for d in new_locations}
        assert len(new_locations) >= 3
        assert len(racks) == 2  # still spans both racks after healing

    def test_two_holders_dead_still_heals(self):
        env, deployment = build()
        upload(env, deployment)
        nn = deployment.namenode
        block = nn.namespace.get("/f").blocks[0]
        l0, l1 = nn.blocks.locations(block.block_id)[:2]
        deployment.datanode(l0).kill()
        deployment.datanode(l1).kill()
        env.run(until=env.now + 90)
        assert nn.replication_of(block.block_id) >= 3

    def test_unhealable_when_every_replica_lost(self):
        env, deployment = build()
        upload(env, deployment)
        nn = deployment.namenode
        block = nn.namespace.get("/f").blocks[0]
        for holder in nn.blocks.locations(block.block_id):
            deployment.datanode(holder).kill()
        env.run(until=env.now + 90)
        assert nn.replication_of(block.block_id) == 0

    def test_stop_halts_monitor(self):
        env, deployment = build()
        result = upload(env, deployment)
        deployment.replication_monitor.stop()
        victim = result.pipelines[0][0]
        deployment.datanode(victim).kill()
        env.run(until=env.now + 60)
        assert not deployment.replication_monitor.completed

    def test_monitor_idle_on_healthy_cluster(self):
        env, deployment = build()
        upload(env, deployment)
        env.run(until=env.now + 30)
        assert deployment.replication_monitor.completed == []


class TestDormancy:
    """An idle scan puts the monitor to sleep; a change wakes it on its
    grid (``interval`` 1 s from t=0), for one event: the scan itself."""

    def _scans(self, deployment):
        monitor = deployment.replication_monitor
        scans = []
        scan = monitor._scan

        def recording():
            scans.append(monitor.env.now)
            return scan()

        monitor._scan = recording
        return monitor, scans

    def test_wakes_on_the_next_grid_tick(self):
        env, deployment = build()
        monitor, scans = self._scans(deployment)

        def poke(env):
            yield env.timeout_at(2.5)
            monitor.wake()  # off the grid: the scan at 3
            yield env.timeout_at(5.0)
            monitor.wake()  # on a tick: the scan of this instant was due
            # before the change, so the next one is at 6
            yield env.timeout_at(8.0)
            monitor.wake(at_tick=True)  # a liveness tick's deaths: now
            scans.append(("inline", env.now))

        env.process(poke(env))
        env.run(until=12)
        assert scans == [1.0, 3.0, 6.0, 8.0, ("inline", 8.0)]
