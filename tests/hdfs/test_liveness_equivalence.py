"""Analytic liveness against the polling loops it replaced.

Each case builds one cluster twice.  One copy runs the production code:
beat chains in the ``DatanodeManager``, a liveness monitor that arms a
tick only where a node expires, and a replication monitor that sleeps
between changes.  The other runs the verbatim loops of
``reference_liveness.py``.  Both replay one schedule of uploads, reads,
kills, revives and service-style barriers, and must observe the same:

* every datanode's ``alive`` flag and ``last_heartbeat``, and every
  block's finalized replica locations, at every tick of the liveness
  grid;
* ``live_datanodes()`` at every allocation;
* the replication monitor's ``completed`` and ``removed`` lists;
* the whole journal.

The grid probe reads after the monitor's tick and before the beats of
its instant, as the polling loops ordered a reader armed one interval
ahead; it settles the monitor first, as every such reader does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.sim import Environment, Interrupt
from repro.units import KB, MB

from .reference_liveness import ReferenceLiveness


@dataclass(frozen=True)
class Step:
    """One scheduled action, ``at`` seconds after its segment starts."""

    at: float
    kind: str  # put | read | kill | revive | beat
    arg: str


@dataclass(frozen=True)
class Case:
    name: str
    #: Segments of steps; a service-style barrier separates segments.
    segments: tuple[tuple[Step, ...], ...]
    #: Seconds to run on after the last segment's steps are done.
    settle: float
    interval: float = 1.0
    dead_node_heartbeats: int = 3
    control_latency: float = 200e-6
    #: Datanodes registered without heartbeats.
    silent: tuple[str, ...] = ()
    #: dn0 runs on the namenode's host (zero control latency).
    colocated: bool = False
    policy: Optional[str] = None
    datanodes: int = 9
    replication: int = 3
    #: The probe reads this long after each grid tick (0: at the tick).
    probe_phase: float = 0.0


def put(at, path, size=3 * MB):
    return Step(at, "put", f"{path}:{size}")


CASES = [
    Case(
        "kill",
        ((put(0.2, "/a"), Step(2.3, "kill", "dn1"), Step(2.3, "kill", "dn5"),
          put(9.5, "/b")),),
        settle=20.0,
    ),
    Case(
        "revive_before_and_after_expiry",
        ((put(0.2, "/a"), Step(2.3, "kill", "dn1"), Step(3.5, "revive", "dn1"),
          Step(2.4, "kill", "dn4"), Step(8.0, "revive", "dn4"),
          put(8.5, "/b")),),
        settle=20.0,
    ),
    Case(
        # dn2's last beat is 2.0004, so the tick at 6 expires it; its new
        # chain's first beat lands at 6.5002, after that tick.
        "revive_between_silent_tick_and_first_beat",
        ((put(0.2, "/a"), Step(2.3, "kill", "dn2"), Step(5.5, "revive", "dn2"),
          put(5.9, "/b")),),
        settle=15.0,
    ),
    Case(
        "kill_across_barrier",
        ((put(0.2, "/a"), Step(1.7, "kill", "dn3")),
         (put(0.5, "/b"), Step(4.0, "kill", "dn6")),
         (put(0.5, "/c"), Step(2.0, "revive", "dn3"))),
        settle=30.0,
    ),
    Case(
        # Beats land on ticks (0.75 s period, 0.5 s grid): dn1 dies exactly
        # on a tick and a beat, dn2 on a tick, and both revive on ticks.
        "beat_kill_revive_on_tick",
        ((put(0.1, "/a", 2 * MB), Step(3.0, "kill", "dn1"),
          Step(3.5, "kill", "dn2"), Step(4.5, "revive", "dn2"),
          Step(5.0, "revive", "dn1"), put(6.0, "/b", 2 * MB)),),
        settle=12.0,
        interval=0.5,
        control_latency=0.25,
    ),
    Case(
        # A 1.75 s beat period against a 1 s dead_after: every node is
        # declared dead and revived by its next beat, again and again.
        "single_heartbeat_flaps",
        ((put(0.1, "/a", 1 * MB), Step(4.2, "kill", "dn3"),
          Step(9.6, "revive", "dn3")),),
        settle=16.0,
        dead_node_heartbeats=1,
        control_latency=0.75,
    ),
    Case(
        "datanode_on_namenode_host",
        ((put(0.2, "/a"), Step(3.0, "kill", "dn0"), Step(9.0, "revive", "dn0"),
          Step(4.0, "kill", "dn7"), put(10.0, "/b")),),
        settle=20.0,
        colocated=True,
    ),
    Case(
        "registered_without_heartbeats",
        ((put(0.2, "/a"), Step(6.0, "beat", "dn2"), Step(6.5, "beat", "dn5"),
          put(9.0, "/b")),),
        settle=18.0,
        silent=("dn2", "dn5", "dn8"),
    ),
    Case(
        # dn6's last beat before its kill is 3.0006, so it expires at 5;
        # the kill comes after the tick at 4, where the loop armed that
        # tick, so the ever-ticking hotspot scan at 5 must settle it.
        "replan_in_last_interval",
        ((put(0.2, "/a"), Step(4.0004, "kill", "dn6")),),
        settle=10.0,
        dead_node_heartbeats=1,
        policy="hotspot",
    ),
    Case(
        # With dn1 dead, the three-node cluster has no copy target: each
        # scan draws a source and plans nothing, so it keeps scanning
        # (and drawing) until dn1's revival gives it one.  The upload of
        # /b wakes the scan due at 6, where dn1's death also runs it.
        "no_target_keeps_drawing",
        ((put(0.2, "/a"), Step(2.3, "kill", "dn1"), put(5.6, "/b", 1 * MB),
          Step(11.5, "revive", "dn1")),),
        settle=10.0,
        datanodes=3,
    ),
    Case(
        # A 1.75 s beat period against a 2 s dead_after.  The barrier at
        # 30 (held open by a no-op step) restarts the grid and every
        # chain.  dn1, dead since before it, restarts beating at 32.25:
        # its reviving beat lands on the tick at 34, its timer armed at
        # 33.25.  dn2's kill at 33.3 loses its beat at 33.5, so the tick
        # at 34 expires it, armed only at the kill.  The dormant scan at
        # 34 must still see dn1 dead, so the probe reads between ticks.
        "revive_beat_on_a_late_tick",
        ((put(0.2, "/a", 2 * MB), Step(0.5, "kill", "dn1"),
          Step(30.0, "beat", "dn0")),
         (Step(2.25, "revive", "dn1"), Step(3.3, "kill", "dn2"))),
        settle=6.0,
        dead_node_heartbeats=2,
        control_latency=0.75,
        probe_phase=0.5,
    ),
    Case(
        # One replica per block on two datanodes: dn1's death leaves its
        # blocks no live holder, so the scan that sweeps them plans and
        # draws nothing, and the monitor sleeps right after it.
        "sweep_leaves_nothing_healable",
        ((put(0.2, "/a"), Step(2.3, "kill", "dn1")),),
        settle=10.0,
        datanodes=2,
        replication=1,
    ),
    Case(
        "hotspot_policy",
        ((put(0.2, "/a", 2 * MB), Step(3.0, "read", "/a"),
          Step(3.1, "read", "/a"), Step(3.2, "read", "/a"),
          Step(8.0, "kill", "dn4")),),
        settle=50.0,
        policy="hotspot",
    ),
]


@dataclass
class Observations:
    ticks: list = dataclasses.field(default_factory=list)
    allocations: list = dataclasses.field(default_factory=list)
    completed: list = dataclasses.field(default_factory=list)
    removed: list = dataclasses.field(default_factory=list)
    journal: list = dataclasses.field(default_factory=list)
    outcomes: list = dataclasses.field(default_factory=list)
    #: When the analytic replication monitor scanned (the polling loop
    #: records none).
    scans: list = dataclasses.field(default_factory=list)


class Analytic:
    """The production services, driven like ``ReferenceLiveness``."""

    def __init__(self, deployment: HdfsDeployment):
        self.deployment = deployment
        self.namenode = deployment.namenode
        self.replication = deployment.replication_monitor

    def start(self, beating):
        self.namenode.start_monitor()
        for name in beating:
            self.start_heartbeats(name)
        self.replication.start()

    def start_monitor(self):
        self.namenode.start_monitor()

    def stop_monitor(self):
        self.namenode.stop_monitor()

    def start_heartbeats(self, name):
        self.deployment.datanode(name).register_heartbeats_again()

    def stop_heartbeats(self, name):
        self.deployment.datanode(name).stop_heartbeats()

    def kill(self, name):
        self.deployment.datanode(name).kill()

    def revive(self, name):
        self.deployment.datanode(name).node.recover()
        self.start_heartbeats(name)


def _build(case: Case, reference: bool):
    env = Environment()
    config = (
        SimulationConfig()
        .with_hdfs(
            block_size=1 * MB,
            packet_size=64 * KB,
            heartbeat_interval=case.interval,
            dead_node_heartbeats=case.dead_node_heartbeats,
            replication=case.replication,
        )
        .with_network(control_latency=case.control_latency)
    )
    cluster = build_homogeneous(
        env, SMALL, n_datanodes=case.datanodes, config=config
    )
    if case.colocated:
        cluster = dataclasses.replace(
            cluster, namenode_host=cluster.datanode_hosts[0]
        )
    names = [host.name for host in cluster.datanode_hosts]
    beating = tuple(n for n in names if n not in case.silent)
    # The production path: services start in the constructor unless some
    # datanode must register without heartbeats.
    start_services = not reference and not case.silent
    deployment = HdfsDeployment(
        cluster,
        start_services=start_services,
        enable_replication_monitor=not reference,
        policy=case.policy,
    )
    model = ReferenceLiveness(deployment) if reference else Analytic(deployment)
    if not start_services:
        model.start(beating)
    return env, deployment, model


def _probe(env, namenode, interval, phase, obs):
    manager, blocks = namenode.datanodes, namenode.blocks
    try:
        if phase:
            yield env.timeout(phase)
        while True:
            yield env.timeout(interval)
            manager.settle()
            obs.ticks.append((
                env.now,
                tuple(
                    (name, manager.descriptor(name).alive,
                     manager.descriptor(name).last_heartbeat)
                    for name in manager.all_names()
                ),
                tuple(
                    (info.block.block_id, blocks.locations(info.block.block_id))
                    for info in blocks.all_blocks()
                ),
            ))
    except Interrupt:
        return


def _step(env, deployment, model, step: Step, obs):
    yield env.timeout(step.at)
    try:
        if step.kind == "put":
            path, size = step.arg.split(":")
            yield env.process(deployment.client().put(path, int(size)))
        elif step.kind == "read":
            yield env.process(HdfsReader(deployment).get(step.arg))
        elif step.kind == "kill":
            model.kill(step.arg)
        elif step.kind == "revive":
            model.revive(step.arg)
        else:
            model.start_heartbeats(step.arg)
        obs.outcomes.append((env.now, step.kind, step.arg, "ok"))
    except Exception as exc:  # a fault may defeat an upload or a read
        obs.outcomes.append((env.now, step.kind, step.arg, type(exc).__name__))


def _segment(env, deployment, model, steps, obs):
    procs = [env.process(_step(env, deployment, model, s, obs)) for s in steps]
    for proc in procs:
        yield proc


def _run(case: Case, reference: bool) -> Observations:
    env, deployment, model = _build(case, reference)
    namenode = deployment.namenode
    manager = namenode.datanodes
    obs = Observations()

    placement = namenode.placement
    choose = placement.choose_targets

    def recording(client, n, excluded=()):
        targets = choose(client, n, excluded)
        obs.allocations.append((env.now, manager.live_datanodes(), targets))
        return targets

    placement.choose_targets = recording
    monitor = model.replication
    scan = monitor._scan

    def recording_scan():
        obs.scans.append(env.now)
        return scan()

    monitor._scan = recording_scan
    probe = env.process(_probe(env, namenode, case.interval, case.probe_phase, obs))
    for index, steps in enumerate(case.segments):
        if index:
            # The ingest service's barrier: stop, run dry, restart.
            for name in sorted(deployment.datanodes):
                model.stop_heartbeats(name)
            model.stop_monitor()
            model.replication.stop()
            probe.interrupt("barrier")
            env.run()
            assert len(env) == 0
            for name in sorted(deployment.datanodes):
                if deployment.datanodes[name].node.alive:
                    model.start_heartbeats(name)
            model.start_monitor()
            model.replication.start()
            probe = env.process(_probe(env, namenode, case.interval, case.probe_phase, obs))
        env.run(until=env.process(_segment(env, deployment, model, steps, obs)))
    env.run(until=env.now + case.settle)
    obs.completed = list(model.replication.completed)
    obs.removed = list(model.replication.removed)
    obs.journal = [
        (e.time, e.kind, e.subject, sorted(e.details.items()))
        for e in deployment.journal.events()
    ]
    return obs


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_liveness_matches_polling_loops(case):
    analytic = _run(case, reference=False)
    reference = _run(case, reference=True)
    assert analytic.ticks == reference.ticks
    assert analytic.allocations == reference.allocations
    assert analytic.completed == reference.completed
    assert analytic.removed == reference.removed
    assert analytic.outcomes == reference.outcomes
    assert analytic.journal == reference.journal
    # The schedule must exercise liveness, not just ride along.
    deaths = {
        name
        for _, row, _ in reference.ticks
        for name, alive, _ in row
        if not alive
    }
    assert deaths
    assert reference.allocations


def test_sweep_alone_lets_the_monitor_sleep():
    """dn1 dies at the tick at 6, and that tick's scan sweeps its
    replicas: block 1002 is left with no holder, so the scan plans and
    draws nothing.  The sweep is idempotent, so the monitor sleeps at once
    instead of scanning again at 7 to find the same nothing."""
    case = next(c for c in CASES if c.name == "sweep_leaves_nothing_healable")
    analytic = _run(case, reference=False)
    assert analytic.scans == [1.0, 6.0]
    _, alive, locations = analytic.ticks[-1]
    assert [a for _, a, _ in alive] == [True, False]
    assert locations[-1] == (1002, ())
