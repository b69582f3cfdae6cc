"""Integration tests for the background re-replication monitor."""

import math

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.policy import Policy
from repro.sim import Environment
from repro.units import KB, MB


def build(n_datanodes=9, monitor=True, policy=None):
    env = Environment()
    cfg = SimulationConfig().with_hdfs(
        block_size=2 * MB,
        packet_size=64 * KB,
        heartbeat_interval=1.0,
        dead_node_heartbeats=3,
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=n_datanodes, config=cfg)
    deployment = HdfsDeployment(
        cluster, enable_replication_monitor=monitor, policy=policy
    )
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


class RaiseOneTarget(Policy):
    """Wants one more copy of block ``block_id`` from instant ``at`` on.

    It overrides only the two target hooks, so it neither trims excess
    nor draws differently: only its moving target keeps the monitor
    awake.
    """

    block_id = -1
    at = math.inf

    def scan_replication(self) -> int:
        return self.replication + 1

    def target_replication(self, block_id: int, now: float) -> int:
        if block_id == self.block_id and now >= self.at:
            return self.replication + 1
        return self.replication


class TestMovingTarget:
    """A policy whose target moves with time keeps the monitor scanning
    every tick; the stock policy's fixed target lets it sleep."""

    def _run(self, policy):
        env, deployment = build(policy=policy)
        monitor = deployment.replication_monitor
        scans, plans = [], []
        scan, plan = monitor._scan, monitor._plan

        def recording_scan():
            scans.append(env.now)
            return scan()

        def recording_plan():
            tasks = plan()
            plans.extend((env.now, block_id) for block_id, _, _ in tasks)
            return tasks

        monitor._scan, monitor._plan = recording_scan, recording_plan
        upload(env, deployment)
        block_id = deployment.namenode.namespace.get("/f").blocks[0].block_id
        # Off the grid: the first tick after it is half a second later.
        at = math.ceil(env.now) + 5.5
        if isinstance(policy, RaiseOneTarget):
            policy.block_id, policy.at = block_id, at
        env.run(until=at + 10)
        return deployment, block_id, at, scans, plans

    def test_moving_target_keeps_the_monitor_awake(self):
        deployment, block_id, at, scans, plans = self._run(RaiseOneTarget())
        assert scans == [float(t) for t in range(1, math.floor(at + 10) + 1)]
        assert plans == [(math.ceil(at), block_id)]
        completed = deployment.replication_monitor.completed
        assert [task[0] for task in completed] == [block_id]
        replicas = deployment.namenode.blocks.locations(block_id)
        assert len(replicas) == deployment.config.hdfs.replication + 1

    def test_stock_policy_sleeps(self):
        deployment, block_id, at, scans, plans = self._run(Policy())
        assert scans and max(scans) < at
        assert plans == []
        replicas = deployment.namenode.blocks.locations(block_id)
        assert len(replicas) == deployment.config.hdfs.replication
