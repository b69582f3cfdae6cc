"""Pod-partitioned multi-tenant workloads.

Large multi-tenant campaigns decompose along rack/client-group
boundaries: a *pod* is one client group plus the datanodes (and
namenode) it writes to — the cell architecture real fleets shard
ingestion across.  Pods share no channels, so two executors must agree
on the result:

* :func:`run_pods_single_env` — all pods simulated in **one**
  :class:`~repro.sim.Environment` (the reference).
* :func:`run_pods_sharded` — each pod simulated in a fresh
  environment, pod groups fanned out over a worker-process pool (via
  :func:`repro.pool.map_named`); results merge in fixed pod order.

The per-client ``(start, end)`` timeline is keyed ``(pod, client)`` and
must be identical across both executors and any group count — the
property ``benchmarks/bench_shard.py`` and the workloads test suite
assert, never assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import SimulationConfig
from ..hdfs.deployment import HdfsDeployment
from ..net.nic import aggregate_counters
from ..pool import map_named
from ..sim import Environment, ProcessGenerator
from ..smarth.deployment import SmarthDeployment
from ..units import MB
from .scenarios import two_rack

__all__ = [
    "PodSpec",
    "PodPlan",
    "PodRunOutcome",
    "campaign10k",
    "run_pods_single_env",
    "run_pods_sharded",
]

#: (pod index, client index) → it sorts, so merged timelines have one
#: canonical order regardless of executor.
ClientKey = tuple[int, int]


@dataclass(frozen=True)
class PodSpec:
    """One independent cell: a client group and its private sub-cluster."""

    index: int
    n_clients: int
    n_datanodes: int
    file_bytes: int
    stagger: float

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ValueError("pod needs at least one client")
        if self.n_datanodes < 1:
            raise ValueError("pod needs at least one datanode")

    def scenario(self):
        return two_rack(
            "small",
            n_datanodes=self.n_datanodes,
            n_extra_clients=self.n_clients - 1,
        )


@dataclass(frozen=True)
class PodPlan:
    """A fixed partition of a multi-tenant campaign into pods.

    The pod structure is part of the *workload*, not the executor: every
    executor runs the same pods, only distributed differently, which is
    what makes their wall-clock times comparable.
    """

    pods: tuple[PodSpec, ...]

    @classmethod
    def regular(
        cls,
        n_pods: int,
        clients_per_pod: int,
        datanodes_per_pod: int,
        file_bytes: int,
        stagger: float = 0.05,
    ) -> "PodPlan":
        """``n_pods`` identical pods (the scale-benchmark shape)."""
        if n_pods < 1:
            raise ValueError("need at least one pod")
        return cls(
            pods=tuple(
                PodSpec(
                    index=index,
                    n_clients=clients_per_pod,
                    n_datanodes=datanodes_per_pod,
                    file_bytes=file_bytes,
                    stagger=stagger,
                )
                for index in range(n_pods)
            )
        )

    @property
    def n_clients(self) -> int:
        return sum(pod.n_clients for pod in self.pods)

    @property
    def n_datanodes(self) -> int:
        return sum(pod.n_datanodes for pod in self.pods)

    def shard_assignment(self, shards: int) -> list[list[PodSpec]]:
        """Round-robin pods over ``shards`` groups (fixed, deterministic)."""
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        groups: list[list[PodSpec]] = [[] for _ in range(shards)]
        for pod in self.pods:
            groups[pod.index % shards].append(pod)
        return groups


@dataclass
class PodRunOutcome:
    """Merged result of one pod-plan execution under any executor."""

    #: ``((pod, client), start, end)`` in canonical (pod, client) order.
    timeline: list[tuple[ClientKey, float, float]]
    #: Simulation events dispatched, summed over all environments.
    events_processed: int
    fully_replicated: bool
    #: Executor label: ``single`` or ``processes``.
    executor: str
    #: Events per worker shard (process executor only).
    shard_events: Optional[list[int]] = None
    #: Aggregate NIC ``(bytes_sent, bytes_received)`` over every host
    #: (single-env executor only).
    bytes_moved: Optional[tuple[int, int]] = None

    @property
    def makespan(self) -> float:
        starts = [start for _key, start, _end in self.timeline]
        ends = [end for _key, _start, end in self.timeline]
        return (max(ends) - min(starts)) if self.timeline else 0.0


def campaign10k(scale: float = 1.0) -> PodPlan:
    """The 10k-client ingestion campaign: 100 pods of 100 clients x 10
    datanodes (10,000 clients, 1,000 datanodes at full scale).

    Pod shape is tuned for the analytic fast paths the campaign
    benchmark measures: 4 MB files (one 64-packet block, inside the
    data-queue bound so the train's batched feeder engages) and a 0.5 s
    client stagger (uploads within a pod barely overlap, so the
    coalesced packet-train path conducts nearly every block).  ``scale``
    shrinks the campaign by dropping pods — the per-pod shape, and
    therefore per-client timing, is invariant — e.g. ``scale=0.02`` is
    the 2-pod CI smoke shape.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    n_pods = max(1, round(100 * scale))
    return PodPlan.regular(
        n_pods,
        clients_per_pod=100,
        datanodes_per_pod=10,
        file_bytes=4 * MB,
        stagger=0.5,
    )


def _deployment(system: str, cluster):
    if system == "smarth":
        return SmarthDeployment(cluster)
    if system == "hdfs":
        return HdfsDeployment(cluster)
    raise ValueError(f"unknown system {system!r}; expected hdfs|smarth")


def _start_pod(
    env: Environment,
    pod: PodSpec,
    system: str,
    config: SimulationConfig,
    results: dict[ClientKey, tuple[float, float]],
) -> tuple[list, object]:
    """Build one pod's cluster in ``env`` and launch its client uploads."""
    cluster = pod.scenario().build(env, config)
    deployment = _deployment(system, cluster)
    hosts = [cluster.client_host] + cluster.extra_client_hosts[: pod.n_clients - 1]

    def one_upload(client_index: int) -> ProcessGenerator:
        yield env.timeout(pod.stagger * client_index)
        client = deployment.client(host=hosts[client_index])
        result = yield env.process(
            client.put(
                f"/data/pod{pod.index}/client{client_index}.bin",
                pod.file_bytes,
            )
        )
        results[(pod.index, client_index)] = (result.start, result.end)

    procs = [
        env.process(one_upload(i), name=f"pod{pod.index}:upload:{i}")
        for i in range(pod.n_clients)
    ]
    return procs, deployment


def _finish(env: Environment, procs: list) -> None:
    env.run(until=env.all_of(procs))
    env.run(until=env.now + 1.0)  # let trailing blockReceived reports land


def _replicated(deployment, pod: PodSpec) -> bool:
    return all(
        deployment.namenode.file_fully_replicated(
            f"/data/pod{pod.index}/client{i}.bin"
        )
        for i in range(pod.n_clients)
    )


def run_pods_single_env(
    plan: PodPlan,
    system: str = "smarth",
    config: Optional[SimulationConfig] = None,
) -> PodRunOutcome:
    """Run every pod inside one environment — the reference executor
    :func:`run_pods_sharded` is checked against."""
    config = config or SimulationConfig()
    env = Environment()
    results: dict[ClientKey, tuple[float, float]] = {}
    all_procs = []
    deployments = []
    for pod in plan.pods:
        procs, deployment = _start_pod(env, pod, system, config, results)
        all_procs.extend(procs)
        deployments.append(deployment)
    _finish(env, all_procs)
    replicated = all(
        _replicated(deployment, pod)
        for deployment, pod in zip(deployments, plan.pods)
    )
    return PodRunOutcome(
        timeline=[
            (key, start, end)
            for key, (start, end) in sorted(results.items())
        ],
        events_processed=env.events_processed,
        fully_replicated=replicated,
        executor="single",
        bytes_moved=aggregate_counters(
            host
            for deployment in deployments
            for host in deployment.cluster.all_hosts
        ),
    )


def _run_pod_group(
    pods: tuple[PodSpec, ...], system: str, config: SimulationConfig
) -> tuple[list[tuple[ClientKey, float, float]], int, bool]:
    """Worker entry point: simulate one shard's pods, each in a fresh env.

    Module-level so it pickles to pool workers; also the ``jobs=1`` path,
    so sequential and parallel execution share every line.
    """
    timeline: list[tuple[ClientKey, float, float]] = []
    events = 0
    replicated = True
    for pod in pods:
        env = Environment()
        results: dict[ClientKey, tuple[float, float]] = {}
        procs, deployment = _start_pod(env, pod, system, config, results)
        _finish(env, procs)
        timeline.extend((key, start, end) for key, (start, end) in sorted(results.items()))
        events += env.events_processed
        replicated = replicated and _replicated(deployment, pod)
    return timeline, events, replicated


def run_pods_sharded(
    plan: PodPlan,
    shards: int,
    system: str = "smarth",
    config: Optional[SimulationConfig] = None,
    jobs: Optional[int] = None,
) -> PodRunOutcome:
    """Execute the plan's pods, each in a fresh environment, across a
    worker-process pool.

    Pods are grouped onto ``shards`` groups round-robin and each group
    runs in its own child process (``jobs`` defaults to ``shards``;
    ``jobs=1`` runs the groups in this process, one pod after another).
    Pods share nothing, so the merged timeline is exactly the
    single-environment one, in the same canonical order.
    """
    config = config or SimulationConfig()
    groups = plan.shard_assignment(shards)
    tasks = [
        (f"shard{index}", (tuple(group), system, config))
        for index, group in enumerate(groups)
        if group
    ]
    jobs = shards if jobs is None else jobs
    outputs = map_named(_run_pod_group, tasks, jobs=jobs)

    timeline: list[tuple[ClientKey, float, float]] = []
    shard_events = []
    replicated = True
    for group_timeline, events, group_replicated in outputs:
        timeline.extend(group_timeline)
        shard_events.append(events)
        replicated = replicated and group_replicated
    timeline.sort(key=lambda item: item[0])
    return PodRunOutcome(
        timeline=timeline,
        events_processed=sum(shard_events),
        fully_replicated=replicated,
        executor="processes",
        shard_events=shard_events,
    )
