"""The continuous-ingestion multi-tenant service (checkpoint/resume).

:class:`IngestService` runs an open-loop upload workload against one
long-lived SMARTH/HDFS deployment.  The simulated horizon is split into
*segments* of ``checkpoint_every`` seconds; every segment ends at a
**quiescent barrier**:

1. the driver stops admitting new arrivals and drains the queue and all
   in-flight uploads;
2. the perpetual infrastructure services are stopped in canonical sorted
   order: each datanode's analytic heartbeat chain (its last beat stays
   in the namenode's descriptor), the liveness monitor and the
   replication scanner, whose armed timers are withdrawn;
3. the schedule runs dry (:class:`~repro.sim.SnapshotError` if it
   doesn't — nothing may survive a barrier);
4. all remaining state is plain data and is snapshotted, then the same
   services restart through the same code path.

Because a barrier leaves *zero* pending events and no live process, the
service object itself is plain data: a snapshot pickles it whole, clock
and event-id counter included, and a resumed run restarts the services
through the identical path — so every subsequent ``(time, priority,
eid)`` triple, and therefore every journal line, metric and SLO table,
is byte-identical to the straight run.  The straight run performs the
same quiesce/restart dance at every boundary whether or not a snapshot
file is written, which is what makes the equivalence provable.

Two deliberate modelling notes:

* Heartbeats pause during the barrier drain itself; datanode
  ``last_heartbeat`` stamps are *not* rewritten at restart, so the
  namenode's dead-node timing matches real HDFS.  Configure
  ``heartbeat_interval * dead_node_heartbeats`` comfortably above the
  expected drain length (the defaults are) or healthy nodes could be
  declared dead across a long barrier.
* Arrivals that fall inside a barrier drain are admitted (late) when the
  next segment starts — open-loop arrivals never disappear, they queue
  at the service edge like requests during a rolling restart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..cluster.builder import build_homogeneous
from ..config import SimulationConfig
from ..faults.campaign import FaultSpec
from ..faults.injector import FaultInjector
from ..obs import MetricsRegistry, metrics_summary, window_bucket
from ..rng import substream
from ..sim import Environment, ProcessGenerator, SnapshotError
from ..smarth.deployment import deploy
from ..units import KB, MB
from .admission import ADMIT, QUEUE, AdmissionController
from .arrivals import Arrival, MergedArrivals, TenantClassSpec
from .report import ServiceReport
from .slo import (
    class_latency,
    class_violations,
    slo_table,
    tenant_latency,
)
from .snapshot import load_snapshot, save_snapshot

__all__ = [
    "ServiceSpec",
    "IngestService",
    "generate_service_faults",
]

_PROTOCOLS = ("hdfs", "smarth")


@dataclass(frozen=True)
class ServiceSpec:
    """Everything needed to (re)build one service run deterministically."""

    classes: tuple[TenantClassSpec, ...]
    #: Total simulated horizon, seconds.
    horizon: float
    #: Segment length: quiesce (and optionally checkpoint) this often.
    checkpoint_every: float
    seed: int = 20140901
    protocol: str = "smarth"
    n_datanodes: int = 6
    n_client_hosts: int = 3
    max_inflight: int = 8
    queue_limit: int = 16
    block_size: int = MB
    packet_size: int = 64 * KB
    heartbeat_interval: float = 3.0
    dead_node_heartbeats: int = 10
    #: Window width for the time-bucketed latency histograms.
    slo_window: float = 3600.0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one tenant class")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if self.protocol not in _PROTOCOLS:
            raise ValueError(f"protocol must be one of {_PROTOCOLS}")
        if self.n_client_hosts < 1:
            raise ValueError("n_client_hosts must be >= 1")

    @property
    def total_tenants(self) -> int:
        return sum(c.tenants for c in self.classes)

    @classmethod
    def default(
        cls,
        tenants: int = 500,
        horizon: float = 48 * 3600.0,
        checkpoint_every: float = 6 * 3600.0,
        **overrides: object,
    ) -> "ServiceSpec":
        """The standard three-class mix scaled to ``tenants`` tenants.

        Interactive tenants upload small objects hourly with a strong
        diurnal swing; batch tenants upload every four hours; bulk
        tenants push one larger object per simulated day.
        """
        n_interactive = max(1, tenants // 5)
        n_batch = max(1, (3 * tenants) // 10)
        n_bulk = max(1, tenants - n_interactive - n_batch)
        classes = (
            TenantClassSpec(
                name="interactive",
                tenants=n_interactive,
                mean_interarrival=3600.0,
                size=256 * KB,
                slo=60.0,
                diurnal_amplitude=0.8,
            ),
            TenantClassSpec(
                name="batch",
                tenants=n_batch,
                mean_interarrival=4 * 3600.0,
                size=512 * KB,
                slo=300.0,
            ),
            TenantClassSpec(
                name="bulk",
                tenants=n_bulk,
                mean_interarrival=24 * 3600.0,
                size=MB,
                slo=900.0,
            ),
        )
        return cls(
            classes=classes,
            horizon=horizon,
            checkpoint_every=checkpoint_every,
            **overrides,  # type: ignore[arg-type]
        )


#: Fault events per simulated day in a generated service chaos plan.
FAULT_EVENTS_PER_DAY = 4.0


def generate_service_faults(
    seed: int, n_datanodes: int, horizon: float
) -> tuple[FaultSpec, ...]:
    """A reproducible chaos plan for a service run.

    Alternates throttle windows and kill/revive pairs over the middle 90%
    of the horizon, :data:`FAULT_EVENTS_PER_DAY` of them a day (at least
    one); everything derives from a dedicated substream so the plan is
    stable under unrelated seed consumers.
    """
    rng = substream(seed, "service-faults")
    n_events = max(1, int(FAULT_EVENTS_PER_DAY * horizon / 86400.0))
    faults: list[FaultSpec] = []
    for _ in range(n_events):
        at = rng.uniform(0.05, 0.90) * horizon
        name = f"dn{rng.randrange(n_datanodes)}"
        duration = rng.uniform(0.02, 0.05) * horizon
        if rng.random() < 0.6:
            rate = rng.choice([1.0, 5.0, 25.0])
            faults.append(
                FaultSpec(kind="throttle", at=at, datanode=name, rate_mbps=rate)
            )
            faults.append(
                FaultSpec(kind="unthrottle", at=at + duration, datanode=name)
            )
        else:
            faults.append(FaultSpec(kind="kill", at=at, datanode=name))
            faults.append(
                FaultSpec(kind="revive", at=at + duration, datanode=name)
            )
    return tuple(sorted(faults, key=lambda f: (f.at, f.kind, f.datanode or "")))


class IngestService:
    """One long-running multi-tenant ingest run over a single deployment."""

    def __init__(self, spec: ServiceSpec):
        self.spec = spec
        self.env = Environment()
        config = SimulationConfig(seed=spec.seed).with_hdfs(
            block_size=spec.block_size,
            packet_size=spec.packet_size,
            heartbeat_interval=spec.heartbeat_interval,
            dead_node_heartbeats=spec.dead_node_heartbeats,
        )
        # All infrastructure starts *stopped*: both the fresh and the
        # resumed path go through _start_infra, so they create events in
        # the same order from the same clock state.
        self.cluster = build_homogeneous(
            self.env,
            "small",
            n_datanodes=spec.n_datanodes,
            config=config,
            n_extra_clients=spec.n_client_hosts - 1,
        )
        self.deployment = deploy(spec.protocol, self.cluster, start_services=False)
        self.injector = FaultInjector(self.deployment)
        self._faults = tuple(
            sorted(spec.faults, key=lambda f: (f.at, f.kind, f.datanode or ""))
        )
        self._fault_index = 0
        self.metrics = MetricsRegistry(enabled=True)
        self.arrivals = MergedArrivals(spec.classes, spec.seed)
        self.admission = AdmissionController(spec.max_inflight, spec.queue_limit)
        self._hosts = [self.cluster.client_host] + self.cluster.extra_client_hosts
        self._inflight: dict[int, object] = {}
        self._next_upload = 0
        self._segment_index = 0
        self.checkpoints_written = 0

    # -- construction helpers ----------------------------------------------
    @property
    def journal(self):
        return self.deployment.journal

    @classmethod
    def resume(cls, snapshot_path) -> "IngestService":
        """The service a snapshot file holds, stopped at its barrier."""
        service = load_snapshot(snapshot_path)
        if not isinstance(service, cls):
            raise SnapshotError(f"{snapshot_path} holds no {cls.__name__}")
        return service

    # -- main loop ----------------------------------------------------------
    def _boundaries(self) -> list[float]:
        spec = self.spec
        bounds = []
        k = 1
        while k * spec.checkpoint_every < spec.horizon - 1e-9:
            bounds.append(k * spec.checkpoint_every)
            k += 1
        bounds.append(spec.horizon)
        return bounds

    def run(self, checkpoint_dir=None, progress=None) -> "ServiceReport":
        """Run (or continue) to the horizon; returns the final report.

        ``checkpoint_dir`` writes ``ckpt_NNN.pkl`` after each interior
        barrier; ``progress`` (a callable taking one string) receives a
        line per segment.
        """
        boundaries = self._boundaries()
        while self._segment_index < len(boundaries):
            t_end = boundaries[self._segment_index]
            self._run_segment(t_end)
            self._segment_index += 1
            self.journal.emit(
                self.env.now,
                "service_barrier",
                "service",
                segment=self._segment_index,
                t_end=t_end,
                arrivals=self.admission.arrivals,
                rejected=self.admission.rejected,
            )
            if progress is not None:
                progress(
                    f"segment {self._segment_index}/{len(boundaries)} "
                    f"t={self.env.now:.1f}s arrivals={self.admission.arrivals} "
                    f"rejected={self.admission.rejected}"
                )
            if checkpoint_dir is not None and self._segment_index < len(boundaries):
                path = Path(checkpoint_dir) / f"ckpt_{self._segment_index:03d}.pkl"
                # Counted first: the snapshot holds the service, count
                # included, and a resumed run counts on from it.
                self.checkpoints_written += 1
                save_snapshot(path, self)
        return self.report()

    def _run_segment(self, t_end: float) -> None:
        self._start_infra()
        self._apply_faults(t_end)
        driver = self.env.process(
            self._drive(t_end), name=f"service:seg{self._segment_index}"
        )
        self.env.run(until=driver)
        self._quiesce()

    def _start_infra(self) -> None:
        """(Re)start the perpetual services in canonical order."""
        for name in sorted(self.deployment.datanodes):
            datanode = self.deployment.datanodes[name]
            if datanode.node.alive:
                datanode.register_heartbeats_again()
        self.deployment.namenode.start_monitor()
        self.deployment.replication_monitor.start()

    def _apply_faults(self, t_end: float) -> None:
        """Arm every not-yet-applied fault due before ``t_end``."""
        while (
            self._fault_index < len(self._faults)
            and self._faults[self._fault_index].at < t_end
        ):
            self._faults[self._fault_index].apply(self.injector)
            self._fault_index += 1

    def _drive(self, t_end: float) -> ProcessGenerator:
        """Admit arrivals until ``t_end``, then drain to quiescence."""
        env = self.env
        while self.arrivals.peek() < t_end:
            arrival = self.arrivals.pop()
            if arrival.at > env.now:
                yield env.timeout_at(arrival.at)
            decision = self.admission.on_arrival(arrival)
            if decision == ADMIT:
                self._launch(arrival)
            elif decision == QUEUE:
                self.journal.emit(
                    env.now,
                    "service_enqueue",
                    arrival.tenant,
                    cls=arrival.cls,
                    seq=arrival.seq,
                    depth=len(self.admission.queue),
                )
            else:
                self.journal.emit(
                    env.now,
                    "service_reject",
                    arrival.tenant,
                    cls=arrival.cls,
                    seq=arrival.seq,
                )
                self.metrics.count(
                    self._labelled_rejected(arrival.cls)
                )
        # Barrier drain: completions keep dequeuing the backlog, so
        # waiting out the in-flight set empties the queue too.
        while self._inflight:
            yield self._inflight[min(self._inflight)]

    @staticmethod
    def _labelled_rejected(cls_name: str) -> str:
        from ..obs import labelled

        return labelled("service.rejected", cls=cls_name)

    def _launch(self, arrival: Arrival, dequeued: bool = False) -> None:
        env = self.env
        self.journal.emit(
            env.now,
            "service_dequeue" if dequeued else "service_admit",
            arrival.tenant,
            cls=arrival.cls,
            seq=arrival.seq,
        )
        uid = self._next_upload
        self._next_upload += 1
        proc = env.process(
            self._upload(uid, arrival),
            name=f"svc:{arrival.tenant}:{arrival.seq}",
        )
        self._inflight[uid] = proc

    def _upload(self, uid: int, arrival: Arrival) -> ProcessGenerator:
        env = self.env
        host = self._hosts[arrival.tenant_index % len(self._hosts)]
        client = self.deployment.client(host=host, name=arrival.tenant)
        path = f"/svc/{arrival.cls}/{arrival.tenant}/{arrival.seq}"
        ok = False
        try:
            yield env.process(
                client.put(path, arrival.size),
                name=f"put:{arrival.tenant}:{arrival.seq}",
            )
            latency = env.now - arrival.at
            self._record_latency(arrival, latency)
            self.journal.emit(
                env.now,
                "service_complete",
                arrival.tenant,
                cls=arrival.cls,
                seq=arrival.seq,
                latency=latency,
            )
            ok = True
        except Exception as err:
            self.journal.emit(
                env.now,
                "service_fail",
                arrival.tenant,
                cls=arrival.cls,
                seq=arrival.seq,
                error=type(err).__name__,
            )
        finally:
            # A failed put() leaves the SMARTH speed reporter running;
            # stop it or the barrier can never drain.
            stop_reporter = getattr(client, "stop_reporter", None)
            if stop_reporter is not None:
                stop_reporter()
            del self._inflight[uid]
            backlogged = self.admission.on_done(ok)
            if backlogged is not None:
                self._launch(backlogged, dequeued=True)

    def _record_latency(self, arrival: Arrival, latency: float) -> None:
        spec = self.spec.classes[arrival.cls_index]
        self.metrics.observe(class_latency(arrival.cls), latency)
        self.metrics.observe(
            tenant_latency(arrival.cls, arrival.tenant), latency
        )
        self.metrics.observe(
            window_bucket(
                class_latency(arrival.cls), self.env.now, self.spec.slo_window
            ),
            latency,
        )
        if latency > spec.slo:
            self.metrics.count(class_violations(arrival.cls))

    def _quiesce(self) -> None:
        """Stop the services, run the schedule dry, verify quiescence."""
        for name in sorted(self.deployment.datanodes):
            self.deployment.datanodes[name].stop_heartbeats()
        self.deployment.namenode.stop_monitor()
        self.deployment.replication_monitor.stop()
        self.env.run(until=None)
        pending = len(self.env)
        if pending:
            raise SnapshotError(
                f"schedule not quiescent at barrier: {pending} events pending"
            )
        self.admission.check_drained()
        monitor = self.deployment.replication_monitor
        if monitor._in_flight:
            raise SnapshotError(
                "replication tasks still in flight at barrier"
            )

    # -- reporting -----------------------------------------------------------
    def report(self) -> ServiceReport:
        admission = self.admission
        spec = self.spec
        classes = {}
        for cls_spec in spec.classes:
            hist = self.metrics.histogram(class_latency(cls_spec.name))
            classes[cls_spec.name] = {
                "tenants": cls_spec.tenants,
                "completed": hist.count,
                "rejected": int(
                    self.metrics.counter_value(
                        self._labelled_rejected(cls_spec.name)
                    )
                ),
                "violations": int(
                    self.metrics.counter_value(class_violations(cls_spec.name))
                ),
                "p50": hist.percentile(50),
                "p95": hist.percentile(95),
                "p99": hist.percentile(99),
                "slo": cls_spec.slo,
            }

        counts = {
            "arrivals": admission.arrivals,
            "admitted": admission.admitted,
            "enqueued": admission.enqueued,
            "dequeued": admission.dequeued,
            "rejected": admission.rejected,
            "completed": admission.completed,
            "failed": admission.failed,
            "max_queue_depth": admission.max_queue_depth,
            "max_inflight": admission.max_inflight_seen,
            "queue_limit": spec.queue_limit,
            "inflight_limit": spec.max_inflight,
            "segments": self._segment_index,
            "faults_applied": self._fault_index,
            "final_time": self.env.now,
            "journal_events": len(self.journal),
            "tenants": spec.total_tenants,
            "conservation_ok": admission.arrivals == admission.settled,
            "queue_bounded": admission.max_queue_depth <= spec.queue_limit,
            "inflight_bounded": admission.max_inflight_seen <= spec.max_inflight,
        }
        return ServiceReport(
            counts=counts,
            classes=classes,
            journal=self.journal,
            metrics_text=metrics_summary(self.metrics),
            slo_text=slo_table(self.metrics, spec.classes),
        )
