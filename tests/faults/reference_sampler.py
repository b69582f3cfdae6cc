"""Reference oracle for the invariant monitor's buffer sampler.

:class:`PollingSampler` is the monitor's original buffer sampler, kept
verbatim: a process that wakes every ``interval`` simulated seconds for
the whole run, open receivers or not.  The production sampler
(:meth:`repro.faults.invariants.InvariantMonitor._sample_buffers`) sleeps
while no receiver is open and must record exactly what this loop
records; ``test_sampler_equivalence.py`` runs both on one deployment.
"""

from __future__ import annotations

from repro.faults.invariants import InvariantRecord
from repro.hdfs.deployment import HdfsDeployment
from repro.sim import Interrupt, ProcessGenerator


class PollingSampler:
    """The always-polling ``buffer_bound`` sampler, alongside a monitor."""

    def __init__(
        self,
        deployment: HdfsDeployment,
        record: InvariantRecord,
        buffer_bound_bytes: int,
        sample_interval: float = 0.05,
    ):
        self.deployment = deployment
        self.env = deployment.env
        self.records = {"buffer_bound": record}
        self._packet_size = deployment.config.hdfs.packet_size
        self.buffer_bound_bytes = buffer_bound_bytes
        self._sampler = self.env.process(
            self._sample_buffers(sample_interval), name="reference:sampler"
        )

    def _sample_buffers(self, interval: float) -> ProcessGenerator:
        record = self.records["buffer_bound"]
        try:
            while True:
                yield self.env.timeout(interval)
                for datanode in self.deployment.datanodes.values():
                    for receiver in datanode.receivers:
                        buffered = receiver.buffered_packets * self._packet_size
                        record.check(
                            buffered <= self.buffer_bound_bytes,
                            f"{datanode.name}: {buffered} buffered bytes "
                            f"> bound {self.buffer_bound_bytes} "
                            f"(t={self.env.now:.3f})",
                        )
        except Interrupt:
            return

    def stop(self) -> None:
        if self._sampler.is_alive:
            self._sampler.interrupt("monitor stopped")
