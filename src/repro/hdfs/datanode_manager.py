"""Datanode liveness tracking on the namenode.

Datanodes register once and then heartbeat every
:attr:`~repro.config.HdfsConfig.heartbeat_interval` seconds; a monitor
process declares a node dead after ``dead_node_heartbeats`` missed beats.
Placement (both default HDFS and SMARTH's Algorithm 1) only ever considers
*live* datanodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import HdfsConfig
from ..sim import Environment, Interrupt, ProcessGenerator

__all__ = ["DatanodeDescriptor", "DatanodeManager"]


@dataclass
class DatanodeDescriptor:
    """Namenode-side view of one datanode."""

    name: str
    rack: str
    last_heartbeat: float = 0.0
    alive: bool = True
    #: Active write streams (an xceiver-count analogue, for load stats).
    active_streams: int = 0


class DatanodeManager:
    """Registration, heartbeats and the liveness monitor."""

    def __init__(self, env: Environment, config: HdfsConfig):
        self.env = env
        self.config = config
        self._datanodes: dict[str, DatanodeDescriptor] = {}
        #: Memoized live-node views, dropped on any membership or
        #: liveness transition.  ``live_datanodes`` is on the per-block
        #: allocation path, so rebuilding the sorted tuple per call costs
        #: O(n log n) × blocks at steady state for a set that only changes
        #: on registration, death or revival.
        self._live_cache: tuple[str, ...] | None = None
        self._live_set_cache: frozenset[str] | None = None

    def _invalidate_live(self) -> None:
        self._live_cache = None
        self._live_set_cache = None

    # -- registration and heartbeats -----------------------------------------
    def register(self, name: str, rack: str) -> DatanodeDescriptor:
        if name in self._datanodes:
            raise ValueError(f"datanode {name!r} already registered")
        descriptor = DatanodeDescriptor(
            name=name, rack=rack, last_heartbeat=self.env.now
        )
        self._datanodes[name] = descriptor
        self._invalidate_live()
        return descriptor

    def heartbeat(self, name: str) -> None:
        """Record a beat; revives a node previously marked dead."""
        descriptor = self._get(name)
        descriptor.last_heartbeat = self.env.now
        if not descriptor.alive:
            descriptor.alive = True
            self._invalidate_live()

    def mark_dead(self, name: str) -> None:
        descriptor = self._get(name)
        if descriptor.alive:
            descriptor.alive = False
            self._invalidate_live()

    # -- liveness monitor ------------------------------------------------------
    @property
    def dead_after(self) -> float:
        """Seconds of heartbeat silence before a node is declared dead."""
        return self.config.heartbeat_interval * self.config.dead_node_heartbeats

    def monitor(self) -> ProcessGenerator:
        """Background process that expires silent datanodes.

        Runs forever; start it with ``env.process(manager.monitor())``.
        An :class:`~repro.sim.Interrupt` stops it cleanly — the service
        checkpoint barrier interrupts it to drain the schedule, then
        restarts a fresh one.
        """
        try:
            while True:
                yield self.env.timeout(self.config.heartbeat_interval)
                cutoff = self.env.now - self.dead_after
                for descriptor in self._datanodes.values():
                    if descriptor.alive and descriptor.last_heartbeat < cutoff:
                        descriptor.alive = False
                        self._invalidate_live()
        except Interrupt:
            return

    # -- queries ------------------------------------------------------------------
    def live_datanodes(self) -> tuple[str, ...]:
        """Live datanode names, sorted; cached between transitions."""
        if self._live_cache is None:
            self._live_cache = tuple(
                sorted(d.name for d in self._datanodes.values() if d.alive)
            )
        return self._live_cache

    def live_set(self) -> frozenset[str]:
        """Live datanode names as a frozenset (membership tests)."""
        if self._live_set_cache is None:
            self._live_set_cache = frozenset(self.live_datanodes())
        return self._live_set_cache

    def descriptor(self, name: str) -> DatanodeDescriptor:
        return self._get(name)

    def rack_of(self, name: str) -> str:
        return self._get(name).rack

    def is_alive(self, name: str) -> bool:
        return self._get(name).alive

    def all_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._datanodes))

    # -- snapshot protocol -------------------------------------------------
    def export_state(self) -> dict:
        """Descriptors are plain dataclasses; copy them for checkpointing."""
        return {
            "datanodes": {
                name: DatanodeDescriptor(**vars(d))
                for name, d in self._datanodes.items()
            }
        }

    def restore_state(self, state: dict) -> None:
        self._datanodes = {
            name: DatanodeDescriptor(**vars(d))
            for name, d in state["datanodes"].items()
        }
        self._invalidate_live()

    def _get(self, name: str) -> DatanodeDescriptor:
        try:
            return self._datanodes[name]
        except KeyError:
            raise KeyError(f"unknown datanode {name!r}") from None

    def __len__(self) -> int:
        return len(self._datanodes)
