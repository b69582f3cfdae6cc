"""Datanode liveness tracking on the namenode.

Datanodes register once and then heartbeat every
:attr:`~repro.config.HdfsConfig.heartbeat_interval` seconds; the
liveness monitor declares a node dead after ``dead_node_heartbeats``
intervals of silence, and its next beat revives it.  Placement (both
default HDFS and SMARTH's Algorithm 1) only ever considers *live*
datanodes.

A beat's only effect is the ``last_heartbeat`` stamp (and reviving a
node declared dead), so beats are not events.  Each beating datanode
holds a :class:`_BeatChain`, the float chain ``b_1 = (t0 + interval) +
latency``, ``b_{k+1} = (b_k + interval) + latency`` that a heartbeat
loop's ``timeout(interval)`` and control-message ``timeout(latency)``
produce, folded into the stamp whenever someone reads it.  The monitor
arms a timer only for the grid tick at which some live node expires,
and a dead node with a running chain gets timers only for the beat that
revives it.  Quiet simulated time therefore costs no events.  DESIGN.md
("Analytic liveness") states the tie rules;
``tests/hdfs/reference_liveness.py`` keeps the polling loops as the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..config import HdfsConfig
from ..sim import Environment, Event, Interrupt, ProcessGenerator

__all__ = ["DatanodeDescriptor", "DatanodeManager"]

#: Grid ticks one expiry search may walk before it settles for a timer
#: at the tick it reached (re-planning there).  Only a chain whose period
#: is at least ``dead_after`` walks past its first beat.
_WALK_LIMIT = 100_000


@dataclass
class DatanodeDescriptor:
    """Namenode-side view of one datanode."""

    name: str
    rack: str
    last_heartbeat: float = 0.0
    alive: bool = True


class _BeatChain:
    """One datanode's heartbeats as the float chain its loop produced.

    ``point`` is the next interval point (where the loop's
    ``timeout(interval)`` fired) and ``beat`` the beat it leads to, one
    control latency later.
    """

    __slots__ = ("name", "interval", "latency", "point", "beat", "revive")

    def __init__(self, name: str, start: float, interval: float, latency: float):
        self.name = name
        self.interval = interval
        self.latency = latency
        self.point = start + interval
        self.beat = self.point + latency
        #: The pending timer of an armed reviving beat, if any.
        self.revive: Optional[Event] = None

    def advance(self) -> float:
        """Consume the next beat and return its time."""
        beat = self.beat
        self.point = beat + self.interval
        self.beat = self.point + self.latency
        return beat

    def fold(self, descriptor: DatanodeDescriptor, before: float) -> None:
        """Stamp ``descriptor`` with every beat strictly before ``before``."""
        while self.beat < before:
            descriptor.last_heartbeat = self.advance()


class DatanodeManager:
    """Registration, analytic heartbeats and the liveness monitor."""

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
        #: Running beat chains by datanode name.
        self._chains: dict[str, _BeatChain] = {}
        #: Liveness monitor: the event its process waits on while it runs
        #: (``None`` when stopped), the grid tick it last passed, and its
        #: armed timer with the expiry tick that timer leads to.
        self._lifetime: Optional[Event] = None
        self._grid = 0.0
        self._alarm: Optional[Event] = None
        self._alarm_tick = 0.0
        #: Called on every liveness transition with ``at_tick`` (True for
        #: a death the monitor's tick declared): the replication
        #: monitor's wake-up hook.
        self.on_transition: Optional[Callable[[bool], None]] = None

    def _invalidate_live(self, at_tick: bool = False) -> None:
        self._live_cache = None
        self._live_set_cache = None
        if self.on_transition is not None:
            self.on_transition(at_tick)

    # -- registration and heartbeats -----------------------------------------
    def register(self, name: str, rack: str) -> DatanodeDescriptor:
        if name in self._datanodes:
            raise ValueError(f"datanode {name!r} already registered")
        descriptor = DatanodeDescriptor(
            name=name, rack=rack, last_heartbeat=self.env.now
        )
        self._datanodes[name] = descriptor
        self._invalidate_live()
        self._plan()
        return descriptor

    def start_beats(self, name: str, latency: float) -> None:
        """Start ``name`` beating every interval from now (no-op if it is).

        ``latency`` is the datanode-to-namenode control latency
        (:meth:`~repro.net.transport.Network.control_delay`); it must be
        below the interval, so every beat's timer was created after the
        ticks of its instant (DESIGN.md, "Analytic liveness").  A node the
        namenode holds dead is revived by the chain's first beat.
        """
        if name in self._chains:
            return
        interval = self.config.heartbeat_interval
        if latency >= interval:
            raise ValueError(
                f"control latency {latency} must be below the heartbeat "
                f"interval {interval}"
            )
        descriptor = self._get(name)
        chain = _BeatChain(name, self.env.now, interval, latency)
        self._chains[name] = chain
        if not descriptor.alive:
            self._arm_revive(chain)
        self._plan()

    def stop_beats(self, name: str) -> None:
        """Stop ``name``'s chain; its last beat stays in the descriptor.

        A beat due at this very instant is not recorded: the loop's
        interrupt was urgent, so it ran before that beat's timer.
        """
        chain = self._chains.pop(name, None)
        if chain is None:
            return
        chain.fold(self._datanodes[name], self.env.now)
        if chain.revive is not None:
            chain.revive.cancel()
        self._plan()

    def heartbeat(self, name: str) -> None:
        """Record a beat now; revives a node previously marked dead."""
        descriptor = self.descriptor(name)
        descriptor.last_heartbeat = self.env.now
        if not descriptor.alive:
            self._set_alive(descriptor, True)
            self._plan()

    def mark_dead(self, name: str) -> None:
        descriptor = self._get(name)
        if descriptor.alive:
            self._set_alive(descriptor, False)
            self._plan()

    def _set_alive(self, descriptor: DatanodeDescriptor, alive: bool) -> None:
        descriptor.alive = alive
        self._invalidate_live()
        chain = self._chains.get(descriptor.name)
        if chain is None:
            return
        if alive:
            if chain.revive is not None:
                chain.revive.cancel()
                chain.revive = None
        else:
            self._arm_revive(chain)

    def _arm_revive(self, chain: _BeatChain) -> None:
        """Schedule the next beat of a dead node's chain, which revives it.

        The beat keeps both of the loop's timers: one at the interval
        point, which arms the control latency to the beat, so the beat is
        ordered among same-instant events exactly as the loop's was.  If
        the point has already passed, the beat's timer is armed directly.
        """
        if chain.revive is not None:
            return
        now = self.env.now
        chain.fold(self._datanodes[chain.name], now)
        if chain.point >= now:
            timer = self.env.timeout_at(chain.point)
            timer.callbacks.append(partial(self._revive_point, chain))
        else:
            timer = self.env.timeout_at(chain.beat)
            timer.callbacks.append(partial(self._revive_beat, chain))
        chain.revive = timer

    def _revive_point(self, chain: _BeatChain, _: Event) -> None:
        timer = self.env.timeout(chain.latency)
        timer.callbacks.append(partial(self._revive_beat, chain))
        chain.revive = timer

    def _revive_beat(self, chain: _BeatChain, _: Event) -> None:
        chain.revive = None
        self.settle()
        descriptor = self._datanodes[chain.name]
        descriptor.last_heartbeat = chain.advance()
        self._set_alive(descriptor, True)
        self._plan()

    # -- liveness monitor ------------------------------------------------------
    @property
    def dead_after(self) -> float:
        """Seconds of heartbeat silence before a node is declared dead."""
        return self.config.heartbeat_interval * self.config.dead_node_heartbeats

    def monitor(self) -> ProcessGenerator:
        """The liveness monitor: expires silent datanodes on a tick grid.

        The grid is ``t_{k+1} = t_k + heartbeat_interval`` from the
        process's start, where a polling loop's chained timeouts landed.
        A tick declares dead every live node whose last beat before it is
        older than ``dead_after``.  The monitor arms a timer only for the
        first grid tick at which that happens (see :meth:`_plan`), and
        re-plans whenever a chain starts or stops or liveness changes.

        This process only holds the monitor's lifetime: start it with
        ``env.process(manager.monitor())``, at most one at a time.  An
        :class:`~repro.sim.Interrupt` stops it cleanly — the service
        checkpoint barrier interrupts it to drain the schedule, then
        restarts a fresh one.
        """
        if self._lifetime is not None:
            raise RuntimeError("the liveness monitor is already running")
        # Held here, so the parked process stays reachable.
        self._lifetime = self.env.event()
        self._grid = self.env.now
        self._plan()
        try:
            yield self._lifetime
        except Interrupt:
            self._lifetime = None
            self._disarm()

    def settle(self) -> None:
        """Run the monitor's tick due at this instant, if it is pending.

        The loop armed each tick one interval ahead, so a replication
        scan, an allocation or a beat at a tick's instant always came
        after that tick.  A tick re-planned within its last interval is
        armed later than that; its readers call this first.
        """
        alarm = self._alarm
        if alarm is not None and self._alarm_tick == self.env.now:
            alarm.cancel()
            self._tick(alarm)

    def _tick(self, _: Event) -> None:
        """Declare the silent nodes dead, re-plan, then report the deaths.

        The report comes last, so a replication scan it runs at this
        instant sees the whole tick, as the loops ordered it.
        """
        self._alarm = None
        now = self.env.now
        self._grid = now
        cutoff = now - self.dead_after
        died = False
        for descriptor in self._datanodes.values():
            if not descriptor.alive:
                continue
            chain = self._chains.get(descriptor.name)
            if chain is not None:
                chain.fold(descriptor, now)
            if descriptor.last_heartbeat < cutoff:
                descriptor.alive = False
                died = True
                if chain is not None:
                    self._arm_revive(chain)
        self._plan()
        if died:
            self._invalidate_live(at_tick=True)

    def _plan(self) -> None:
        """Arm the timer of the first grid tick that expires a live node.

        Realigns to the grid by walking its float chain to the present,
        as the invariant sampler does after sleeping.  The tick's timer
        is created one interval ahead, at the grid tick before it, as the
        loop created it; if that tick has passed, it is created now.
        """
        if self._lifetime is None:
            return
        now = self.env.now
        interval = self.config.heartbeat_interval
        grid = self._grid
        while grid + interval < now:
            grid += interval
        self._grid = grid
        tick = float("inf")
        for descriptor in self._datanodes.values():
            if descriptor.alive:
                tick = min(tick, self._expiry(descriptor, grid + interval))
        if self._alarm is not None:
            if tick == self._alarm_tick:
                return
            self._disarm()
        if tick == float("inf"):
            return
        previous = grid
        while previous + interval < tick:
            previous += interval
        self._alarm_tick = tick
        if previous > now:
            self._alarm = self.env.timeout_at(previous)
            self._alarm.callbacks.append(self._arm_tick)
        else:
            self._alarm = self.env.timeout_at(tick)
            self._alarm.callbacks.append(self._tick)

    def _arm_tick(self, _: Event) -> None:
        self._alarm = self.env.timeout(self.config.heartbeat_interval)
        self._alarm.callbacks.append(self._tick)

    def _disarm(self) -> None:
        if self._alarm is not None:
            self._alarm.cancel()
            self._alarm = None

    def _expiry(self, descriptor: DatanodeDescriptor, first: float) -> float:
        """The first grid tick from ``first`` that finds ``descriptor`` silent.

        A tick sees the beats strictly before it.  A chain whose period
        ``interval + latency`` is below ``dead_after`` can only expire
        before its first beat: after that, every gap between beats is
        shorter than ``dead_after`` by far more than the chain's rounding.
        A longer period (``dead_node_heartbeats == 1``) is walked beat by
        beat; ``inf`` means the node never expires.
        """
        interval = self.config.heartbeat_interval
        dead_after = self.dead_after
        chain = self._chains.get(descriptor.name)
        if chain is not None:
            chain.fold(descriptor, self.env.now)
        stamp = descriptor.last_heartbeat
        if chain is None:
            beat, latency, short = float("inf"), 0.0, False
        else:
            beat, latency = chain.beat, chain.latency
            short = interval + latency < dead_after
        tick = first
        for _ in range(_WALK_LIMIT):
            while beat < tick:
                if short:
                    return float("inf")
                stamp = beat
                beat = (beat + interval) + latency
            if stamp < tick - dead_after:
                return tick
            tick += interval
        return tick

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
        """``name``'s descriptor, stamped with its beats before now."""
        descriptor = self._get(name)
        chain = self._chains.get(name)
        if chain is not None:
            chain.fold(descriptor, self.env.now)
        return descriptor

    def rack_of(self, name: str) -> str:
        return self._get(name).rack

    def is_alive(self, name: str) -> bool:
        return self._get(name).alive

    def all_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._datanodes))

    def _get(self, name: str) -> DatanodeDescriptor:
        try:
            return self._datanodes[name]
        except KeyError:
            raise KeyError(f"unknown datanode {name!r}") from None

    def __len__(self) -> int:
        return len(self._datanodes)
