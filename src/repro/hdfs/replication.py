"""Background re-replication of under-replicated blocks.

Real HDFS's namenode continuously scans for blocks whose live replica
count dropped below the target (a datanode died, a disk failed) and
schedules copies from a surviving holder to a fresh target.  The write
path's pipeline recovery (Algorithms 3/4) only protects blocks *being
written*; this monitor is what heals blocks that lose replicas *after*
their file completed — without it, the fault story of any HDFS
reproduction is only half told.

Model:

* every ``interval`` the monitor diffs the block manager against the
  liveness map (dead nodes' replicas are dropped, mirroring HDFS
  processing a dead node's block list);
* each under-replicated, COMPLETE block gets one replication task:
  a surviving holder streams the block to a new target (rack-aware:
  prefer a rack not yet holding a replica), which writes it to disk and
  reports ``blockReceived``;
* per-source concurrency is capped (HDFS's
  ``dfs.namenode.replication.max-streams`` analogue).

A tick that found nothing to do finds nothing again until the liveness
map or the block map changes, so the monitor then sleeps: its next tick
is scheduled by the change itself, on the same grid (see
:meth:`ReplicationMonitor.wake`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from ..policy.base import ReplicationPolicy
from ..sim import Event, Interrupt, ProcessGenerator
from .protocol import BlockState

if TYPE_CHECKING:  # pragma: no cover
    from .deployment import HdfsDeployment

__all__ = ["ReplicationMonitor", "copy_block"]


def copy_block(
    deployment: "HdfsDeployment", block_id: int, source: str, target: str
) -> ProcessGenerator:
    """Stream one block replica from ``source`` to ``target``.

    The primitive behind background re-replication: disk read at the
    source, one network transfer, disk write at the target, then
    ``blockReceived`` (dropped if the target died mid-copy).
    """
    namenode = deployment.namenode
    env = deployment.env
    info = namenode.blocks.info(block_id)
    size = info.block.size
    src_dn = deployment.datanode(source)
    dst_dn = deployment.datanode(target)
    read = env.process(src_dn.node.disk.read(size))
    yield env.process(
        deployment.network.transfer(src_dn.node, dst_dn.node, size)
    )
    yield read
    yield env.process(dst_dn.node.disk.write(size))
    if dst_dn.node.alive:
        namenode.block_received(block_id, target, size)
        return True
    return False


class ReplicationMonitor:
    """Namenode-side healing of under-replicated complete blocks."""

    def __init__(
        self,
        deployment: "HdfsDeployment",
        interval: Optional[float] = None,
        max_streams_per_source: int = 2,
        autostart: bool = True,
        policy: Optional["ReplicationPolicy"] = None,
    ):
        self.deployment = deployment
        self.env = deployment.env
        self.namenode = deployment.namenode
        config = deployment.config.hdfs
        #: Scan period; defaults to one heartbeat interval.
        self.interval = interval or config.heartbeat_interval
        self.max_streams_per_source = max_streams_per_source
        self.replication = config.replication
        #: Replica-count/selection strategy (DESIGN.md §12); defaults to
        #: the deployment policy's, whose stock implementation consumes
        #: this monitor's RNG in exactly the historical order.
        self.policy = policy if policy is not None else (
            deployment.policy.replication()
        )

        #: Blocks with an in-flight replication task.
        self._in_flight: set[int] = set()
        #: Per-source active stream counts.
        self._streams: dict[str, int] = {}
        #: Completed re-replications (for tests/reporting).
        self.completed: list[tuple[int, str, str]] = []
        #: Replicas dropped by the excess pass (for tests/reporting).
        self.removed: list[tuple[int, str]] = []
        self.rng = random.Random(deployment.config.seed ^ 0x9EA1)
        #: Whether the last plan drew from :attr:`rng`.
        self._drew = False
        #: The grid tick of the last scan, and whether that scan let the
        #: monitor sleep; while it sleeps, the event its loop waits on.
        self._tick = 0.0
        self._sleep = False
        self._wake: Optional[Event] = None
        self._proc = None
        self.namenode.datanodes.on_transition = self.wake
        self.namenode.blocks.on_change = self.wake
        if autostart:
            self.start()

    def start(self) -> None:
        """(Re)start the scan loop if it is not running."""
        if self._proc is None or not self._proc.is_alive:
            self._proc = self.env.process(self._run(), name="nn:replication")

    def stop(self) -> None:
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("monitor stopped")

    def wake(self, at_tick: bool = False) -> None:
        """Resume a dormant monitor on its grid (no-op while awake).

        The next scan is the first grid tick after now, scheduled as one
        event: the tick itself.  ``at_tick`` reports deaths the liveness
        monitor's tick declared at this instant.  The loops ordered that
        tick just before this monitor's scan of the same instant, so a
        scan due now runs right here, inside the liveness tick's event,
        and the loop skips it when its own event for this instant fires.
        """
        wake = self._wake
        if wake is None or (wake.triggered and not at_tick):
            return
        now = self.env.now
        tick = self._tick + self.interval
        while tick < now:
            tick += self.interval
        if at_tick and tick == now:
            self._wake = None
            self._sleep = self._scan()
            self._wake = wake
            if wake.triggered or self._sleep:
                return
            tick += self.interval
        elif wake.triggered:
            return
        elif tick == now:
            tick += self.interval
        wake.succeed_at(tick)

    @property
    def _may_sleep(self) -> bool:
        """Whether an idle scan proves the next ones idle too.

        Not under a policy whose replica target moves with time, or one
        that trims excess replicas (``hotspot``): each of its scans can
        act, and counts promotions.
        """
        policy = self.policy
        return (
            type(policy).target_replication
            is ReplicationPolicy.target_replication
            and not policy.manages_excess
        )

    # ------------------------------------------------------------------
    def _run(self) -> ProcessGenerator:
        """Scan on the grid ``t_{k+1} = t_k + interval`` from the start.

        While a scan leaves nothing to watch, the monitor sleeps until
        :meth:`wake`: nothing a skipped scan reads can have changed, so
        it would have done nothing.
        """
        self._tick = self.env.now
        self._sleep = False
        try:
            while True:
                if self._sleep:
                    self._wake = self.env.event()
                    yield self._wake
                    self._wake = None
                else:
                    yield self.env.timeout(self.interval)
                if self._tick != self.env.now:
                    self._sleep = self._scan()
        except Interrupt:
            self._wake = None
            return

    def _scan(self) -> bool:
        """One tick: sweep, plan and start copies, trim excess.

        Returns whether the monitor may sleep: the scan planned no task
        and drew nothing from :attr:`rng`, no copy is in flight, and the
        policy's targets are fixed.  What the sweep dropped does not keep
        it awake: the sweep is idempotent and this scan's plan already
        saw its result.
        """
        self._tick = self.env.now
        self.namenode.datanodes.settle()
        self._sweep_dead_nodes()
        tasks = self._plan()
        for block_id, source, target in tasks:
            self._in_flight.add(block_id)
            self._streams[source] = self._streams.get(source, 0) + 1
            self.env.process(
                self._replicate(block_id, source, target),
                name=f"rerepl:b{block_id}",
            )
        if self.policy.manages_excess:
            self._trim_excess()
        return self._may_sleep and not (tasks or self._drew or self._in_flight)

    def _sweep_dead_nodes(self) -> None:
        """Drop replicas hosted on namenode-declared-dead datanodes."""
        manager = self.namenode.datanodes
        for name in manager.all_names():
            if not manager.is_alive(name):
                self.namenode.blocks.remove_datanode(name)

    def _plan(self) -> list[tuple[int, str, str]]:
        """One (block, source, target) task per healable block.

        Per-block targets and the source/target picks come from the
        replication policy; with the stock policy the scan bound equals
        the configured factor and both picks consume ``self.rng`` in the
        historical order, so the plan is byte-identical to the
        pre-policy monitor.
        """
        blocks = self.namenode.blocks
        manager = self.namenode.datanodes
        topology = self.deployment.network.topology
        live = set(manager.live_datanodes())
        now = self.env.now
        tasks: list[tuple[int, str, str]] = []
        self._drew = False

        for block_id in blocks.under_replicated(self.policy.scan_replication()):
            if block_id in self._in_flight:
                continue
            info = blocks.info(block_id)
            if info.state is not BlockState.COMPLETE:
                continue  # the writing client's recovery owns this block
            if info.finalized_replicas >= self.policy.target_replication(
                block_id, now
            ):
                continue  # scanned only because the policy widened the bound
            holders = [d for d in blocks.locations(block_id) if d in live]
            if not holders:
                continue  # unrecoverable: no live replica at all
            sources = [
                s
                for s in holders
                if self._streams.get(s, 0) < self.max_streams_per_source
            ]
            if not sources:
                continue
            self._drew = True
            source = self.policy.select_source(self.rng, sources)
            target = self.policy.select_target(
                self.rng, holders, live, topology
            )
            if target is None:
                continue
            tasks.append((block_id, source, target))
        return tasks

    def _trim_excess(self) -> None:
        """Drop replicas the policy deems excess (hotspot cool-down).

        Only runs for policies with ``manages_excess``; never shrinks a
        block below the configured replication factor, and leaves blocks
        with in-flight copy tasks alone.
        """
        blocks = self.namenode.blocks
        live = set(self.namenode.datanodes.live_datanodes())
        now = self.env.now
        for info in blocks.all_blocks():
            if info.state is not BlockState.COMPLETE:
                continue
            block_id = info.block.block_id
            if block_id in self._in_flight:
                continue
            holders = [d for d in blocks.locations(block_id) if d in live]
            victims = self.policy.excess_replicas(block_id, holders, now)
            for victim in victims:
                if len(holders) <= self.replication:
                    break  # durability floor: never trim below base
                if victim not in holders:
                    continue
                holders.remove(victim)
                blocks.drop_replica(block_id, victim)
                self.removed.append((block_id, victim))
                self.deployment.journal.emit(
                    now,
                    "replica_trimmed",
                    f"block:{block_id}",
                    datanode=victim,
                )
                self.deployment.metrics.count("replicas_trimmed")

    def _replicate(self, block_id: int, source: str, target: str) -> ProcessGenerator:
        """One bookkept :func:`copy_block` task."""
        try:
            ok = yield from copy_block(self.deployment, block_id, source, target)
            if ok:
                self.completed.append((block_id, source, target))
        finally:
            self._in_flight.discard(block_id)
            self._streams[source] = max(0, self._streams.get(source, 0) - 1)
            self.wake()
