"""Scheduled fault injection for upload experiments.

Supports killing a named datanode at a fixed simulated time, killing
"whichever datanode is busy" (useful because placement is randomized), and
reviving nodes later.  All injections are plain simulation processes, so
they compose with any workload.  ``at`` is an *absolute* simulated time:
an injector created mid-run (e.g. by the ingest service at a segment
boundary) fires the fault at ``at`` on the shared clock, and a fault whose
time has already passed fires immediately.

Interplay with the analytic channel model: NIC/disk occupancy is a
``busy_until`` quote committed when a transfer starts
(:class:`repro.sim.Channel`), so a throttle injected mid-run changes the
rate seen by transfers that *start* after it — in-flight quotes are
immutable.  A datanode kill interrupts the receiver processes, and any
quote already committed just leaves the channel busy for the doomed
transfer's duration — exactly the wire time the bytes actually occupied
before the socket reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hdfs.deployment import HdfsDeployment
from ..sim import Environment, ProcessGenerator

__all__ = ["FaultEvent", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """Record of one executed injection."""

    at: float
    kind: str
    datanode: Optional[str]


@dataclass
class FaultInjector:
    """Schedules datanode faults against a deployment."""

    deployment: HdfsDeployment
    events: list[FaultEvent] = field(default_factory=list)

    @property
    def env(self) -> Environment:
        return self.deployment.env

    def _register_disturbance(self, at: float) -> None:
        """Record a scheduled kill time on the deployment.

        No train declines on it: write trains settle the pipeline error
        and hold mid-block for Algorithm 4, and read trains settle a
        killed stream where the per-chunk loop notices the death, after
        the chunk in flight (see :mod:`repro.hdfs.train`).  Throttles are
        not registered: a train replays a throttle-table change like any
        other (:meth:`repro.hdfs.train.TrainBase._on_throttle`).  The
        service snapshot and the ledger's decline probe read the list.
        """
        self.deployment.scheduled_disturbances.append(at)

    def _at(self, at: float, name: str, action: Callable[[], None]) -> None:
        """Spawn process ``name``: sleep until ``at`` (not at all if it
        has passed), then run ``action``."""

        def proc(env: Environment) -> ProcessGenerator:
            yield env.timeout(max(0.0, at - env.now))
            action()

        self.env.process(proc(self.env), name=name)

    # -- injection schedules -------------------------------------------------
    def kill_at(self, name: str, at: float) -> None:
        """Crash datanode ``name`` at simulated time ``at``."""
        self.deployment.datanode(name)  # validate early
        self._register_disturbance(at)

        def kill() -> None:
            datanode = self.deployment.datanode(name)
            if datanode.node.alive:
                datanode.kill()
                self.events.append(FaultEvent(self.env.now, "kill", name))

        self._at(at, f"fault:kill:{name}", kill)

    def kill_busy_at(self, at: float, pick: int = 0) -> None:
        """Crash the ``pick``-th datanode with active receivers at ``at``.

        Placement is randomized, so experiments usually want "a node that
        is actually mid-pipeline" rather than a fixed name.
        """
        self._register_disturbance(at)

        def kill_busy() -> None:
            busy = [
                d
                for d in self.deployment.datanodes.values()
                if d.active_receivers > 0 and d.node.alive
            ]
            if busy:
                victim = busy[min(pick, len(busy) - 1)]
                victim.kill()
                event = FaultEvent(self.env.now, "kill_busy", victim.name)
            else:
                event = FaultEvent(self.env.now, "kill_busy_noop", None)
            self.events.append(event)

        self._at(at, "fault:kill_busy", kill_busy)

    def throttle_at(self, name: str, rate_mbps: float, at: float) -> None:
        """Degrade one datanode's bandwidth at time ``at`` (§III-C's
        'network status varies all the time').

        Effective rates are evaluated per transfer, so in-flight packets
        finish at the old rate and everything after sees the new one —
        like a tenant suddenly saturating the NIC.
        """
        from ..net.throttle import NodeThrottle
        from ..units import mbps

        self.deployment.datanode(name)  # validate early

        def throttle() -> None:
            self.deployment.network.throttles.add(
                NodeThrottle(name, mbps(rate_mbps))
            )
            self.events.append(FaultEvent(self.env.now, "throttle", name))

        self._at(at, f"fault:throttle:{name}", throttle)

    def unthrottle_at(self, name: str, at: float) -> None:
        """Remove every dynamic throttle on ``name`` at time ``at``."""
        from ..net.throttle import NodeThrottle

        self.deployment.datanode(name)  # validate early

        def unthrottle() -> None:
            removed = self.deployment.network.throttles.remove_matching(
                lambda r: isinstance(r, NodeThrottle) and r.node_name == name
            )
            if removed:
                self.events.append(FaultEvent(self.env.now, "unthrottle", name))

        self._at(at, f"fault:unthrottle:{name}", unthrottle)

    def revive_at(self, name: str, at: float) -> None:
        """Bring a crashed datanode's machine back at ``at``.

        The datanode rejoins on its next heartbeat (namenode-side liveness
        is heartbeat-driven); in-flight pipelines it belonged to are not
        resurrected — matching a real restart.
        """
        self.deployment.datanode(name)  # validate early

        def revive() -> None:
            datanode = self.deployment.datanode(name)
            if not datanode.node.alive:
                datanode.node.recover()
                datanode.register_heartbeats_again()
                self.events.append(FaultEvent(self.env.now, "revive", name))

        self._at(at, f"fault:revive:{name}", revive)

    # -- queries ------------------------------------------------------------
    def killed(self) -> tuple[str, ...]:
        """Names of datanodes actually crashed, in order."""
        return tuple(
            e.datanode
            for e in self.events
            if e.kind.startswith("kill") and e.datanode
        )
