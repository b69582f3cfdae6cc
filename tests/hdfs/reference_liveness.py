"""Reference oracle for analytic liveness: the three polling loops.

Datanode heartbeats were one process per datanode, and the namenode's
liveness and replication monitors were processes that ticked every
interval whether or not anything changed.  The loops are kept here
verbatim; the heartbeat loop's ``Namenode.datanode_heartbeat`` call,
whose only caller it was, is inlined as the manager's explicit
``heartbeat``.  :class:`ReferenceLiveness` drives them on a deployment
built without services, applying kills, revives and barriers the way the
old ``Datanode`` did (interrupting the loop).  ``test_liveness_equivalence.py``
runs it and the production code on one schedule and requires identical
observations.
"""

from __future__ import annotations

from typing import Optional

from repro.hdfs.datanode import Datanode
from repro.hdfs.datanode_manager import DatanodeManager
from repro.hdfs.deployment import HdfsDeployment
from repro.hdfs.replication import ReplicationMonitor
from repro.sim import Interrupt, Process, ProcessGenerator


def heartbeat_loop(datanode: Datanode) -> ProcessGenerator:
    """``Datanode._heartbeat_loop``."""
    assert datanode.namenode is not None
    interval = datanode.config.heartbeat_interval
    try:
        while True:
            yield datanode.env.timeout(interval)
            if not datanode.node.alive:
                return
            yield from datanode.network.send_control(
                datanode.node, datanode.namenode.node
            )
            datanode.namenode.datanodes.heartbeat(datanode.name)
    except Interrupt:
        return


def monitor_loop(manager: DatanodeManager) -> ProcessGenerator:
    """``DatanodeManager.monitor``: expire silent nodes every interval."""
    try:
        while True:
            yield manager.env.timeout(manager.config.heartbeat_interval)
            cutoff = manager.env.now - manager.dead_after
            for descriptor in manager._datanodes.values():
                if descriptor.alive and descriptor.last_heartbeat < cutoff:
                    descriptor.alive = False
                    manager._invalidate_live()
    except Interrupt:
        return


class PollingReplicationMonitor(ReplicationMonitor):
    """The replication monitor whose loop scans every interval."""

    def _run(self) -> ProcessGenerator:
        try:
            while True:
                yield self.env.timeout(self.interval)
                self._sweep_dead_nodes()
                for task in self._plan():
                    block_id, source, target = task
                    self._in_flight.add(block_id)
                    self._streams[source] = self._streams.get(source, 0) + 1
                    self.env.process(
                        self._replicate(block_id, source, target),
                        name=f"rerepl:b{block_id}",
                    )
                if self.policy.manages_excess:
                    self._trim_excess()
        except Interrupt:
            return


class ReferenceLiveness:
    """The polling loops on a deployment built with ``start_services=False``
    and without a replication monitor."""

    def __init__(self, deployment: HdfsDeployment):
        self.deployment = deployment
        self.env = deployment.env
        self.manager = deployment.namenode.datanodes
        self._beats: dict[str, Process] = {}
        self._monitor: Optional[Process] = None
        self.replication = PollingReplicationMonitor(deployment, autostart=False)
        deployment.replication_monitor = self.replication

    # -- the deployment's services, in its start order ---------------------
    def start(self, beating: tuple[str, ...]) -> None:
        self.start_monitor()
        for name in beating:
            self.start_heartbeats(name)
        self.replication.start()

    def start_monitor(self) -> None:
        if self._monitor is None or not self._monitor.is_alive:
            self._monitor = self.env.process(
                monitor_loop(self.manager), name="nn:monitor"
            )

    def stop_monitor(self) -> None:
        if self._monitor is not None and self._monitor.is_alive:
            self._monitor.interrupt("monitor stopped")

    def start_heartbeats(self, name: str) -> None:
        """``register_with``'s start and ``register_heartbeats_again``."""
        proc = self._beats.get(name)
        if proc is None or not proc.is_alive:
            self._beats[name] = self.env.process(
                heartbeat_loop(self.deployment.datanode(name)), name=f"hb:{name}"
            )

    def stop_heartbeats(self, name: str) -> None:
        proc = self._beats.get(name)
        if proc is not None and proc.is_alive:
            proc.interrupt("heartbeats stopped")

    # -- faults --------------------------------------------------------------
    def kill(self, name: str) -> None:
        """``Datanode.kill``, which ended by interrupting the loop."""
        self.deployment.datanode(name).kill()
        proc = self._beats.get(name)
        if proc is not None and proc.is_alive:
            proc.interrupt("datanode killed")

    def revive(self, name: str) -> None:
        self.deployment.datanode(name).node.recover()
        self.start_heartbeats(name)
