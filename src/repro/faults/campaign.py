"""Deterministic chaos campaigns for the multi-pipeline write and read paths.

A *campaign* is a seed-driven batch of randomized fault schedules —
datanode kills, kill-the-busy-node, bandwidth throttles, revives and
compound sequences of those — each executed against both the baseline
HDFS client and the SMARTH client while an
:class:`~repro.faults.invariants.InvariantMonitor` checks durability
invariants live and after the run settles.  One engine runs two
workloads (:class:`ChaosWorkload`): :data:`WRITE` faults one upload,
and :data:`READ` ingests a file undisturbed, then faults the replica
holders under concurrent degraded readers.

Everything derives from one seeded ``random.Random`` per schedule and
simulated time, so the JSON report (rendered with sorted keys) is
byte-identical across repeated runs of the same seed — the property the
CLI's ``chaos`` subcommand and the fixed-seed pytest campaign assert.
Every non-green write run also carries a self-contained repro command:
run ``--seed <subseed> --runs 1`` to regenerate exactly that schedule,
because run *i* of a campaign uses sub-seed ``seed + i``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from typing import Optional

from ..config import SimulationConfig
from ..hdfs.client.input_stream import BlockUnavailable, HdfsReader
from ..hdfs.client.recovery import RecoveryFailed
from ..hdfs.deployment import HdfsDeployment
from ..sim import Event
from ..smarth.deployment import deploy
from ..units import KB, MB
from ..workloads.scenarios import Scenario, two_rack
from .injector import FaultInjector
from .invariants import (
    INVARIANT_NAMES,
    READ_INVARIANT_NAMES,
    InvariantMonitor,
)

__all__ = [
    "FaultSpec",
    "ChaosWorkload",
    "ChaosSchedule",
    "generate_schedule",
    "generate_read_schedule",
    "run_schedule",
    "run_campaign",
    "run_read_campaign",
    "report_json",
]

#: Chaos runs use small blocks so every upload spans multiple blocks
#: (and SMARTH multiple pipelines) while staying fast to simulate.
CHAOS_BLOCK_SIZE = 2 * MB
CHAOS_PACKET_SIZE = 64 * KB
#: Simulated-time budget per run; a workload still unfinished by then is
#: classified as a hang (real uploads finish in a few simulated seconds).
RUN_DEADLINE = 600.0
#: Extra settle margin beyond the namenode's dead-node declaration delay,
#: covering replication-monitor scan ticks plus the re-copy itself.
SETTLE_MARGIN = 10.0
#: Concurrent readers per read run; with ``READ_SERVE_STREAMS`` slots per
#: datanode they genuinely queue on hot replicas.
READ_FANOUT = 3
#: Serve-queue capacity for read runs — deliberately below the default so
#: the shared serve queue is exercised, not just modeled.
READ_SERVE_STREAMS = 2

_PROTOCOLS = ("hdfs", "smarth")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, serializable and self-applying."""

    kind: str  # kill | kill_busy | throttle | unthrottle | revive
    at: float
    datanode: Optional[str] = None
    rate_mbps: Optional[float] = None
    pick: int = 0

    def apply(self, injector: FaultInjector) -> None:
        if self.kind == "kill":
            injector.kill_at(self.datanode, at=self.at)
        elif self.kind == "kill_busy":
            injector.kill_busy_at(at=self.at, pick=self.pick)
        elif self.kind == "throttle":
            injector.throttle_at(self.datanode, self.rate_mbps, at=self.at)
        elif self.kind == "unthrottle":
            injector.unthrottle_at(self.datanode, at=self.at)
        elif self.kind == "revive":
            injector.revive_at(self.datanode, at=self.at)
        else:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def to_dict(self) -> dict:
        spec: dict = {"kind": self.kind, "at": self.at}
        if self.datanode is not None:
            spec["datanode"] = self.datanode
        if self.rate_mbps is not None:
            spec["rate_mbps"] = self.rate_mbps
        if self.kind == "kill_busy":
            spec["pick"] = self.pick
        return spec


@dataclass(frozen=True)
class ChaosWorkload:
    """What one kind of chaos run draws, starts and checks."""

    #: File sizes to draw from, in MB before ``scale``.
    sizes_mb: tuple[int, ...]
    #: Fault times are drawn uniformly from this window (s).
    fault_window: tuple[float, float]
    #: Fault-kind draw list; repeated kinds weigh more.
    kinds: tuple[str, ...]
    #: Delay windows (s) of the compound revive and unthrottle follow-ups.
    revive_after: tuple[float, float]
    unthrottle_after: tuple[float, float]
    #: Invariants the monitor checks and the campaign totals.
    invariant_names: tuple[str, ...]
    #: Concurrent readers of an undisturbed ingest; 0 faults one upload.
    readers: int


#: One upload under the faults.
WRITE = ChaosWorkload(
    sizes_mb=(6, 8, 10, 12, 16),
    fault_window=(0.05, 2.5),
    kinds=("kill", "kill_busy", "throttle", "throttle"),
    revive_after=(3.0, 8.0),
    unthrottle_after=(0.3, 1.5),
    invariant_names=INVARIANT_NAMES,
    readers=0,
)
#: Degraded reads.  Fault times are offsets from the start of the read
#: phase; reads finish in well under a second, so faults land mid-stream.
READ = ChaosWorkload(
    sizes_mb=(6, 8, 10, 12),
    fault_window=(0.01, 0.4),
    kinds=("kill", "kill", "throttle"),
    revive_after=(1.0, 4.0),
    unthrottle_after=(0.1, 0.5),
    invariant_names=INVARIANT_NAMES + READ_INVARIANT_NAMES,
    readers=READ_FANOUT,
)


@dataclass(frozen=True)
class ChaosSchedule:
    """One run's randomized-but-reproducible fault plan."""

    seed: int
    n_datanodes: int
    boundary_throttle_mbps: Optional[float]
    size: int
    faults: tuple[FaultSpec, ...]
    #: The workload the schedule was drawn for (not part of the report).
    workload: ChaosWorkload

    def scenario(self) -> Scenario:
        return two_rack(
            "small",
            n_datanodes=self.n_datanodes,
            throttle_mbps=self.boundary_throttle_mbps,
        )

    def config(self) -> SimulationConfig:
        config = SimulationConfig(seed=self.seed).with_hdfs(
            block_size=CHAOS_BLOCK_SIZE, packet_size=CHAOS_PACKET_SIZE
        )
        if self.workload.readers:
            config = config.with_hdfs(serve_streams=READ_SERVE_STREAMS)
        return config

    def apply(self, injector: FaultInjector) -> None:
        for fault in self.faults:
            fault.apply(injector)

    @property
    def last_fault_at(self) -> float:
        return max((f.at for f in self.faults), default=0.0)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_datanodes": self.n_datanodes,
            "boundary_throttle_mbps": self.boundary_throttle_mbps,
            "size": self.size,
            "faults": [f.to_dict() for f in self.faults],
        }


def _generate(workload: ChaosWorkload, seed: int, scale: float) -> ChaosSchedule:
    """Derive one ``workload`` fault schedule entirely from ``seed``.

    Kills are budgeted to ``replication - 1`` per schedule so that every
    block keeps a recovery path and a live replica (the paper's fault
    model: fewer simultaneous failures than replicas); once the budget is
    spent, further draws degrade to throttles.  Kill faults may spawn a
    compound revive; throttles may spawn a compound unthrottle.
    """
    rng = random.Random(seed)
    replication = SimulationConfig().hdfs.replication

    n_datanodes = rng.randint(5, 9)
    names = [f"dn{i}" for i in range(n_datanodes)]
    boundary = rng.choice((None, None, 50.0, 100.0))
    size_mb = rng.choice(workload.sizes_mb)
    size = max(int(size_mb * MB * scale), 2 * CHAOS_BLOCK_SIZE)

    faults: list[FaultSpec] = []
    kill_budget = replication - 1
    for _ in range(rng.randint(1, 3)):
        at = round(rng.uniform(*workload.fault_window), 3)
        kind = rng.choice(workload.kinds)
        if kind in ("kill", "kill_busy") and kill_budget <= 0:
            kind = "throttle"
        if kind == "kill":
            kill_budget -= 1
            name = names[rng.randrange(n_datanodes)]
            faults.append(FaultSpec("kill", at, datanode=name))
            if rng.random() < 0.5:  # compound: crash, then restart
                faults.append(
                    FaultSpec(
                        "revive",
                        round(at + rng.uniform(*workload.revive_after), 3),
                        datanode=name,
                    )
                )
        elif kind == "kill_busy":
            kill_budget -= 1
            faults.append(FaultSpec("kill_busy", at, pick=rng.randrange(3)))
        else:
            name = names[rng.randrange(n_datanodes)]
            rate = rng.choice((25.0, 50.0, 100.0))
            faults.append(
                FaultSpec("throttle", at, datanode=name, rate_mbps=rate)
            )
            if rng.random() < 0.6:  # compound: transient slowdown
                faults.append(
                    FaultSpec(
                        "unthrottle",
                        round(at + rng.uniform(*workload.unthrottle_after), 3),
                        datanode=name,
                    )
                )

    faults.sort(key=lambda f: (f.at, f.kind, f.datanode or ""))
    return ChaosSchedule(
        seed=seed,
        n_datanodes=n_datanodes,
        boundary_throttle_mbps=boundary,
        size=size,
        faults=tuple(faults),
        workload=workload,
    )


def generate_schedule(seed: int, scale: float = 1.0) -> ChaosSchedule:
    """One upload fault schedule, derived entirely from ``seed``."""
    return _generate(WRITE, seed, scale)


def generate_read_schedule(seed: int, scale: float = 1.0) -> ChaosSchedule:
    """One degraded-read fault schedule, derived entirely from ``seed``."""
    return _generate(READ, seed, scale)


def _defuse_failure(event: Event) -> None:
    """Keep a failed workload process from aborting ``env.run`` — the
    campaign classifies the failure instead."""
    if not event.ok:
        event.defuse()


def _start_reads(
    deployment: HdfsDeployment,
    schedule: ChaosSchedule,
    injector: FaultInjector,
    protocol: str,
) -> tuple[float, list]:
    """Ingest the file undisturbed, then schedule the faults (shifted to
    the read phase) and start the readers.

    Returns the read phase's start time and the reader processes.
    """
    env = deployment.env
    path = "/chaos/read.bin"
    ingest = env.process(
        deployment.client().put(path, schedule.size),
        name=f"chaos-read:{protocol}:ingest",
    )
    env.run(until=ingest)
    start = env.now
    for fault in schedule.faults:
        replace(fault, at=round(start + fault.at, 6)).apply(injector)

    readers = []
    for i in range(schedule.workload.readers):
        reader = HdfsReader(deployment, name=f"chaos-reader{i}")
        readers.append(
            env.process(
                _delayed_read(env, reader, path, delay=i * 0.01),
                name=f"chaos-read:{protocol}:r{i}",
            )
        )
    return start, readers


def _delayed_read(env, reader, path: str, delay: float):
    if delay:
        yield env.timeout(delay)
    result = yield env.process(reader.get(path))
    return result


def run_schedule(
    schedule: ChaosSchedule,
    protocol: str,
    trace_path: Optional[str] = None,
    policy: Optional[str] = None,
) -> dict:
    """Execute one schedule under one protocol; returns the run verdict.

    A write schedule's faults hit one upload.  A read schedule ingests
    the file undisturbed, then ``READ_FANOUT`` concurrent readers fetch
    it while the faults (shifted to the read phase) hit replica holders
    underneath them; the monitor checks ``read_durability`` on every
    completed block read: a degraded read must resume on a surviving
    replica and deliver the block in full, never short data.

    ``trace_path`` opts the run into span tracing (repro.obs) and writes
    the Chrome ``trace_event`` JSON there after the run settles.  The
    tracer is a passive observer: the verdict is byte-identical with or
    without it.  ``policy`` selects a registered deployment policy by
    name (``None`` runs the default policy).
    """
    workload = schedule.workload
    config = schedule.config()
    env, cluster = schedule.scenario().make(config)
    deployment = deploy(
        protocol, cluster, observe=trace_path is not None, policy=policy
    )
    monitor = InvariantMonitor(
        deployment, invariant_names=workload.invariant_names
    )
    injector = FaultInjector(deployment)
    if workload.readers:
        faults_from, procs = _start_reads(deployment, schedule, injector, protocol)
    else:
        # The faults are scheduled before the client is built.
        faults_from = 0.0
        schedule.apply(injector)
        procs = [
            env.process(
                deployment.client().put("/chaos/upload.bin", schedule.size),
                name=f"chaos:{protocol}",
            )
        ]
    for proc in procs:
        proc.callbacks.append(_defuse_failure)

    outcome = "completed"
    error: Optional[str] = None
    results = []
    try:
        env.run(until=RUN_DEADLINE)
    except Exception as exc:  # a process outside the workload crashed
        outcome, error = "crash", repr(exc)
    else:
        for proc in procs:
            if not proc.triggered:
                task = "read" if workload.readers else "upload"
                outcome, error = "hang", f"{task} still running at t={env.now:g}"
                break
            if not proc.ok:
                failure = proc.value
                if isinstance(failure, RecoveryFailed):
                    outcome, error = "recovery_failed", str(failure)
                elif isinstance(failure, BlockUnavailable):
                    outcome, error = "read_failed", repr(failure)
                else:
                    outcome, error = "crash", repr(failure)
                break
            results.append(proc.value)

    if outcome == "completed":
        # Let the replication monitor declare dead nodes and heal
        # under-replication before the convergence check.
        hdfs_cfg = config.hdfs
        dead_after = hdfs_cfg.heartbeat_interval * hdfs_cfg.dead_node_heartbeats
        last_fault = faults_from + schedule.last_fault_at
        settle_until = max(env.now, last_fault) + dead_after + SETTLE_MARGIN
        try:
            env.run(until=settle_until)
        except Exception as exc:
            outcome, error = "crash", repr(exc)

    upload = results[0] if results and not workload.readers else None
    monitor.stop()
    monitor.finalize(outcome, upload)

    if trace_path is not None:
        from ..obs import chrome_trace_json

        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(
                chrome_trace_json(
                    deployment.tracer,
                    label=f"chaos seed={schedule.seed} {protocol}",
                )
            )

    verdict = {
        "protocol": protocol,
        "outcome": outcome,
        "ok": monitor.all_ok,
        "invariants": monitor.to_dict(),
        "violations": monitor.violations(),
        "injected": [
            {"at": e.at, "kind": e.kind, "datanode": e.datanode}
            for e in injector.events
        ],
    }
    if workload.readers:
        verdict["reads"] = [
            {
                "duration": result.duration,
                "sources": [list(s) for s in result.sources],
            }
            for result in results
        ]
    else:
        verdict["recoveries"] = upload.recoveries if upload is not None else None
        verdict["duration"] = upload.duration if upload is not None else None
    if error is not None:
        verdict["error"] = error
    return verdict


def _campaign(
    workload: ChaosWorkload,
    seed: int,
    runs: int,
    protocols: tuple[str, ...],
    scale: float,
    trace_dir: Optional[str],
    policy: Optional[str],
) -> dict:
    """Run ``runs`` ``workload`` schedules (sub-seeds ``seed+i``) under
    each protocol and assemble the campaign report."""
    for protocol in protocols:
        if protocol not in _PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    totals = {
        name: {"checks": 0, "violations": 0}
        for name in workload.invariant_names
    }
    fault_kinds: dict[str, int] = {}
    outcomes: dict[str, int] = {}
    report_runs = []
    all_green = True

    for index in range(runs):
        subseed = seed + index
        schedule = _generate(workload, subseed, scale)
        for fault in schedule.faults:
            fault_kinds[fault.kind] = fault_kinds.get(fault.kind, 0) + 1

        verdicts = []
        for protocol in protocols:
            trace_path = (
                f"{trace_dir}/run{index:03d}-{protocol}.json"
                if trace_dir is not None
                else None
            )
            verdict = run_schedule(
                schedule, protocol, trace_path=trace_path, policy=policy
            )
            verdicts.append(verdict)
            outcomes[verdict["outcome"]] = (
                outcomes.get(verdict["outcome"], 0) + 1
            )
            for name, tally in verdict["invariants"].items():
                totals[name]["checks"] += tally["checks"]
                totals[name]["violations"] += len(tally["violations"])
            if not verdict["ok"]:
                all_green = False
                # The CLI replays write campaigns only.
                if not workload.readers:
                    policy_arg = f" --policy {policy}" if policy else ""
                    verdict["repro"] = (
                        f"python -m repro chaos --seed {subseed} --runs 1 "
                        f"--protocol {protocol} --scale {scale:g}{policy_arg}"
                    )

        report_runs.append(
            {
                "index": index,
                "subseed": subseed,
                "schedule": schedule.to_dict(),
                "verdicts": verdicts,
            }
        )

    report = {
        "seed": seed,
        "runs": runs,
        "protocols": list(protocols),
        "scale": scale,
        "all_green": all_green,
        "outcomes": outcomes,
        "fault_kinds": fault_kinds,
        "invariant_totals": totals,
        "runs_detail": report_runs,
    }
    if workload.readers:
        report["kind"] = "read"
    if policy is not None:
        report["policy"] = policy
    return report


def run_campaign(
    seed: int,
    runs: int,
    protocols: tuple[str, ...] = _PROTOCOLS,
    scale: float = 1.0,
    trace_dir: Optional[str] = None,
    policy: Optional[str] = None,
) -> dict:
    """Run ``runs`` upload schedules (sub-seeds ``seed+i``) under each protocol.

    Returns the machine-readable campaign report: per-run schedules and
    verdicts, per-invariant check/violation totals, and a ready-to-paste
    repro command for every non-green run.  ``trace_dir`` additionally
    writes one Chrome trace per (run, protocol) as
    ``run<index>-<protocol>.json``.  ``policy`` runs every schedule
    under a registered deployment policy; the report then carries a
    ``policy`` key (omitted when ``None``, keeping historical reports
    byte-identical).
    """
    return _campaign(WRITE, seed, runs, protocols, scale, trace_dir, policy)


def run_read_campaign(
    seed: int,
    runs: int,
    protocols: tuple[str, ...] = _PROTOCOLS,
    scale: float = 1.0,
    policy: Optional[str] = None,
) -> dict:
    """Run ``runs`` degraded-read schedules under each protocol.

    Same report shape as :func:`run_campaign` plus ``"kind": "read"``,
    with invariant totals covering the read set too
    (``read_durability``) and no repro commands.
    """
    return _campaign(READ, seed, runs, protocols, scale, None, policy)


def report_json(report: dict) -> str:
    """Canonical JSON rendering (sorted keys → byte-identical per seed)."""
    return json.dumps(report, indent=2, sort_keys=True)
