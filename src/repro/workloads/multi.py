"""Multi-client workloads: several uploads sharing one cluster.

The paper's §IV-C buffer rule is *per client* ("its buffer is set to …
64 MB … for each client"), so distinct clients may hold pipelines on the
same datanode simultaneously; they contend for NIC and disk bandwidth
through the normal queueing model.  This module runs N concurrent
uploads (optionally staggered) and reports per-client and aggregate
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import SimulationConfig
from ..hdfs.deployment import HdfsDeployment
from ..hdfs.protocol import WriteResult
from ..sim import Environment, ProcessGenerator
from ..smarth.deployment import SmarthDeployment
from ..units import parse_size
from .scenarios import Scenario

__all__ = ["MultiUploadOutcome", "run_concurrent_uploads"]


@dataclass
class MultiUploadOutcome:
    """Results of one concurrent-upload run."""

    results: list[WriteResult]
    fully_replicated: bool
    system: str
    scenario: str
    start: float = 0.0
    end: float = 0.0

    @property
    def makespan(self) -> float:
        """Time from the first start to the last completion."""
        return self.end - self.start

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.results)

    @property
    def aggregate_throughput(self) -> float:
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0


def run_concurrent_uploads(
    scenario: Scenario,
    system: str,
    sizes: Sequence[int | str],
    config: Optional[SimulationConfig] = None,
    stagger: float = 0.0,
) -> MultiUploadOutcome:
    """Upload ``len(sizes)`` files concurrently, one client per file.

    The first client uses the cluster's client host; additional ones need
    extra client hosts, which the scenario's builder must have provisioned.
    """
    if system not in ("hdfs", "smarth"):
        raise ValueError(f"unknown system {system!r}; expected hdfs|smarth")
    if not sizes:
        raise ValueError("need at least one upload")
    parsed = [parse_size(s) for s in sizes]
    config = config or SimulationConfig()

    env, cluster = scenario.make(config)
    needed_extra = len(parsed) - 1
    available_extra = len(cluster.extra_client_hosts)
    if needed_extra > available_extra:
        raise ValueError(
            f"scenario provides {available_extra} extra client hosts, "
            f"need {needed_extra} (build the cluster with n_extra_clients)"
        )

    deployment = (
        SmarthDeployment(cluster) if system == "smarth" else HdfsDeployment(cluster)
    )
    hosts = [cluster.client_host] + cluster.extra_client_hosts[:needed_extra]

    results: list[WriteResult] = [None] * len(parsed)  # type: ignore[list-item]

    def one_upload(env: Environment, index: int) -> ProcessGenerator:
        yield env.timeout(stagger * index)
        client = deployment.client(host=hosts[index])
        result = yield env.process(
            client.put(f"/data/client{index}.bin", parsed[index])
        )
        results[index] = result

    start = env.now
    procs = [
        env.process(one_upload(env, i), name=f"upload:{i}")
        for i in range(len(parsed))
    ]
    env.run(until=env.all_of(procs))
    end = env.now
    env.run(until=env.now + 1.0)  # let trailing blockReceived reports land

    holes = [i for i, r in enumerate(results) if r is None]
    if holes:
        # A `None` hole means an upload process finished without producing
        # a WriteResult (e.g. its generator was interrupted or returned
        # early).  Surfacing it here with the client index beats handing
        # callers a list they have to hole-check themselves.
        raise RuntimeError(
            f"upload for client {holes[0]} (of {len(parsed)}) completed "
            f"without a WriteResult; failed client indexes: {holes}"
        )

    replicated = all(
        deployment.namenode.file_fully_replicated(f"/data/client{i}.bin")
        for i in range(len(parsed))
    )
    return MultiUploadOutcome(
        results=list(results),
        fully_replicated=replicated,
        system=system,
        scenario=scenario.name,
        start=start,
        end=end,
    )
