"""Always-on durability invariants for chaos runs.

The chaos campaign (:mod:`repro.faults.campaign`) does not compare
uploads against golden outputs — under randomized fault schedules there
is no single right answer.  Instead it checks *invariants*: properties
the write path must preserve under any legal schedule of datanode kills,
throttles and revives.  :class:`InvariantMonitor` runs a periodic
sampler process during the run (checking state properties such as
datanode buffer bounds, and sleeping while no datanode has a receiver
open).  When the run stops it checks the stream properties over the
events the run added to the deployment's
:class:`~repro.analysis.trace.Journal`, in emission order, and once the
run has settled :meth:`InvariantMonitor.finalize` performs the
block-level durability checks.

The invariant suite (names are stable identifiers used in reports):

``acked_durability``
    Every finalized replica of a completed block holds the full block —
    bytes the client saw acknowledged are never silently truncated.
``committed_replica_liveness``
    Every completed block has at least one finalized replica on a live
    datanode (no acknowledged data lives only on corpses).
``replication_convergence``
    When the run completed and enough datanodes survive, every completed
    block reaches the target replication factor (the replication monitor
    must heal fault-induced under-replication).
``generation_monotone``
    A block's generation stamp never decreases across pipeline opens and
    recoveries (stale-replica invalidation depends on this ordering).
``buffer_bound``
    No datanode buffers more than one block (§IV-C: the first datanode
    buffers at most one full block per client), sampled periodically.
``pipeline_cap``
    A client never has more than ``num_datanodes / replication`` live
    pipelines (Algorithm 1's cap), tracked via pipeline_open /
    pipeline_done journal events.
``recovery_outcome``
    A faulted run either completes or raises ``RecoveryFailed`` — it
    never hangs and never fails some other way.

The campaign engine's read workload
(:data:`repro.faults.campaign.READ`, run by
:func:`repro.faults.campaign.run_read_campaign`) extends the monitor
with :data:`READ_INVARIANT_NAMES`:

``read_durability``
    Every ``read_complete`` journal event delivered exactly the block's
    size — a degraded read (source killed mid-stream, resumed on another
    replica) never returns short data.

Write-only campaigns keep the historical name set, so their reports stay
byte-identical; pass ``invariant_names=INVARIANT_NAMES +
READ_INVARIANT_NAMES`` to monitor a workload that reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

from ..analysis.trace import TraceEvent
from ..hdfs.client.data_streamer import SOCKET_BUFFER
from ..hdfs.deployment import HdfsDeployment
from ..hdfs.protocol import BlockState, WriteResult
from ..sim import Event, Interrupt, ProcessGenerator

__all__ = [
    "InvariantRecord",
    "InvariantMonitor",
    "INVARIANT_NAMES",
    "READ_INVARIANT_NAMES",
]

#: Simulated seconds between two checks of the buffer sampler's grid.
SAMPLE_INTERVAL = 0.05

#: Stable identifiers of every invariant the monitor checks by default
#: (the historical write-path set).
INVARIANT_NAMES: tuple[str, ...] = (
    "acked_durability",
    "committed_replica_liveness",
    "replication_convergence",
    "generation_monotone",
    "buffer_bound",
    "pipeline_cap",
    "recovery_outcome",
)

#: Additional invariants for workloads that read (degraded-read chaos).
READ_INVARIANT_NAMES: tuple[str, ...] = ("read_durability",)


@dataclass
class InvariantRecord:
    """Check/violation tally for one invariant."""

    name: str
    checks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, ok: bool, message: str) -> None:
        """Record one evaluation; keep ``message`` when it failed."""
        self.checks += 1
        if not ok:
            self.violations.append(message)

    def to_dict(self) -> dict:
        return {
            "checks": self.checks,
            "violations": list(self.violations),
        }


class InvariantMonitor:
    """Watches one deployment during a chaos run.

    Construction notes where the deployment's journal ends and starts the
    buffer sampler; call :meth:`stop` when the workload is over (it
    checks the journal events emitted since) and :meth:`finalize` after
    the post-run settle period to run the block-level durability checks.
    """

    def __init__(
        self,
        deployment: HdfsDeployment,
        invariant_names: tuple[str, ...] = INVARIANT_NAMES,
    ):
        self.deployment = deployment
        self.env = deployment.env
        hdfs_cfg = deployment.config.hdfs
        self._packet_size = hdfs_cfg.packet_size
        self._replication = hdfs_cfg.replication
        # §IV-C: one full block per client; the baseline client's socket
        # buffer may also be larger than a chaos block.  The sampler
        # reads it at every check.
        self.buffer_bound_bytes = max(
            hdfs_cfg.block_size,
            SOCKET_BUFFER,
            4 * hdfs_cfg.packet_size,
        )
        self.pipeline_cap = max(
            1, len(deployment.datanodes) // self._replication
        )

        self.records: dict[str, InvariantRecord] = {
            name: InvariantRecord(name) for name in invariant_names
        }
        self._generation_high: dict[str, int] = {}
        self._live_pipelines: dict[str, set[str]] = {}
        self._finalized = False

        #: Index of the first journal event :meth:`stop` has yet to check.
        self._unchecked = len(deployment.journal)
        #: The dormant sampler's wake event; ``None`` while it is active.
        self._wake: Optional[Event] = None
        for datanode in deployment.datanodes.values():
            datanode.on_receiver_open = self._on_receiver_open
        self._sampler = self.env.process(
            self._sample_buffers(), name="invariant:sampler"
        )

    # -- checks (journal events + sampler) ------------------------------
    def _check_event(self, event: TraceEvent) -> None:
        details = event.details
        generation = details.get("generation")
        if generation is not None:
            high = self._generation_high.get(event.subject)
            self.records["generation_monotone"].check(
                high is None or generation >= high,
                f"{event.subject}: generation {generation} after {high} "
                f"(t={event.time:.3f})",
            )
            if high is None or generation > high:
                self._generation_high[event.subject] = generation

        if (
            event.kind == "read_complete"
            and "read_durability" in self.records
        ):
            delivered = details["bytes"]
            size = details["size"]
            self.records["read_durability"].check(
                delivered == size and size > 0,
                f"{event.subject}: read by {details.get('client')} "
                f"returned {delivered}/{size} bytes (t={event.time:.3f})",
            )

        client = details.get("client")
        if client is not None and event.kind == "pipeline_open":
            live = self._live_pipelines.setdefault(client, set())
            live.add(event.subject)
            self.records["pipeline_cap"].check(
                len(live) <= self.pipeline_cap,
                f"client {client}: {len(live)} live pipelines "
                f"> cap {self.pipeline_cap} (t={event.time:.3f})",
            )
        elif client is not None and event.kind == "pipeline_done":
            self._live_pipelines.setdefault(client, set()).discard(
                event.subject
            )

    def _on_receiver_open(self) -> None:
        wake, self._wake = self._wake, None
        if wake is not None:
            wake.succeed()

    def _sample_buffers(self) -> ProcessGenerator:
        """Check every open receiver's buffer on a fixed tick grid.

        The grid is the float sequence ``t_{k+1} = t_k + interval`` from
        the monitor's start (``interval`` is :data:`SAMPLE_INTERVAL`),
        exactly the times chained ``timeout(interval)`` calls would land
        on.  While any receiver is open the sampler walks that grid tick
        by tick.  When a tick finds none it goes dormant and schedules
        nothing until a datanode opens a receiver; it then advances
        ``tick`` along the same float chain to the first grid time at or
        after the wake-up and resumes there, so the checks it records are
        those of a sampler that never slept.

        Tie rule: a receiver opened exactly on a grid tick while the
        sampler sleeps is counted at that tick.
        """
        interval = SAMPLE_INTERVAL
        record = self.records["buffer_bound"]
        datanodes = self.deployment.datanodes.values()
        tick = self.env.now
        seen = any(datanode.active_receivers for datanode in datanodes)
        try:
            while True:
                if seen:
                    yield self.env.timeout(interval)
                    tick = self.env.now
                else:
                    self._wake = self.env.event()
                    yield self._wake
                    tick += interval
                    while tick < self.env.now:
                        tick += interval
                    yield self.env.timeout_at(tick)
                seen = False
                for datanode in datanodes:
                    for receiver in datanode.receivers:
                        seen = True
                        buffered = receiver.buffered_packets * self._packet_size
                        record.check(
                            buffered <= self.buffer_bound_bytes,
                            f"{datanode.name}: {buffered} buffered bytes "
                            f"> bound {self.buffer_bound_bytes} "
                            f"(t={self.env.now:.3f})",
                        )
        except Interrupt:
            return

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        """Check the journal events emitted since construction, in
        emission order, detach from the datanodes and stop the sampler.

        A second call checks only the events emitted after the first.
        """
        journal = self.deployment.journal
        for event in islice(journal, self._unchecked, None):
            self._check_event(event)
        self._unchecked = len(journal)
        for datanode in self.deployment.datanodes.values():
            if datanode.on_receiver_open == self._on_receiver_open:
                datanode.on_receiver_open = None
        if self._sampler.is_alive:
            self._sampler.interrupt("monitor stopped")

    def finalize(
        self, outcome: str, result: Optional[WriteResult] = None
    ) -> None:
        """Run the block-level durability checks (idempotent).

        ``outcome`` is the campaign's run classification: ``completed``,
        ``recovery_failed``, ``read_failed``, ``crash`` or ``hang``.
        """
        if self._finalized:
            return
        self._finalized = True

        self.records["recovery_outcome"].check(
            outcome in ("completed", "recovery_failed"),
            f"run ended with outcome {outcome!r} "
            "(expected completed or recovery_failed)",
        )
        if result is not None:
            self.records["pipeline_cap"].check(
                result.max_concurrent_pipelines <= self.pipeline_cap,
                f"peak {result.max_concurrent_pipelines} concurrent "
                f"pipelines > cap {self.pipeline_cap}",
            )

        blocks = self.deployment.namenode.blocks
        live = {
            name
            for name, dn in self.deployment.datanodes.items()
            if dn.node.alive
        }
        enough_nodes = len(live) >= self._replication
        for info in blocks.all_blocks():
            if info.state is not BlockState.COMPLETE:
                continue
            bid = info.block.block_id
            for replica in info.replicas.values():
                if not replica.finalized:
                    continue
                self.records["acked_durability"].check(
                    replica.bytes_confirmed == info.block.size,
                    f"block {bid}: replica on {replica.datanode} holds "
                    f"{replica.bytes_confirmed}/{info.block.size} bytes",
                )
            live_finalized = sum(
                1
                for replica in info.replicas.values()
                if replica.finalized and replica.datanode in live
            )
            self.records["committed_replica_liveness"].check(
                live_finalized >= 1,
                f"block {bid}: no finalized replica on a live datanode",
            )
            if outcome == "completed" and enough_nodes:
                self.records["replication_convergence"].check(
                    blocks.replication_of(bid) >= self._replication,
                    f"block {bid}: {blocks.replication_of(bid)} finalized "
                    f"replicas < target {self._replication} with "
                    f"{len(live)} live datanodes",
                )

    # -- reporting ------------------------------------------------------
    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    def violations(self) -> dict[str, list[str]]:
        """Non-empty violation lists keyed by invariant name."""
        return {
            name: list(r.violations)
            for name, r in self.records.items()
            if r.violations
        }

    def to_dict(self) -> dict:
        return {name: r.to_dict() for name, r in self.records.items()}
