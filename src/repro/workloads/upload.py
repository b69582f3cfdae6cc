"""End-to-end upload workloads: the `hdfs put` the paper measures.

:func:`run_upload` builds a scenario, deploys either baseline HDFS or
SMARTH on it, optionally wires fault injection, uploads one file and
returns everything the experiment harness needs.  :func:`compare` runs
both systems on identical scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..analysis.metrics import improvement_percent
from ..config import SimulationConfig
from ..faults.injector import FaultInjector
from ..hdfs.protocol import WriteResult
from ..policy.registry import PolicySpec
from ..smarth.deployment import deploy
from ..units import parse_size
from .scenarios import Scenario

__all__ = ["UploadOutcome", "run_upload", "compare"]


@dataclass
class UploadOutcome:
    """Everything observed from one simulated upload."""

    result: WriteResult
    fully_replicated: bool
    system: str
    scenario: str
    injected_faults: tuple[str, ...] = ()
    #: The deployment the upload ran on — only kept when the caller asked
    #: for observability (``observe=True``), so traces and metrics can be
    #: exported after the run.
    deployment: Optional[object] = None

    @property
    def duration(self) -> float:
        return self.result.duration


def run_upload(
    scenario: Scenario,
    system: str,
    size: int | str,
    config: Optional[SimulationConfig] = None,
    path: str = "/data/upload.bin",
    fault_hook: Optional[Callable[[FaultInjector], None]] = None,
    observe: bool = False,
    policy: "PolicySpec" = None,
) -> UploadOutcome:
    """Upload ``size`` bytes through ``system`` ("hdfs" or "smarth").

    ``policy`` accepts anything :func:`repro.policy.resolve_policy`
    does; passing one *instance* across calls lets stateful policies
    (the online tuner) learn across otherwise-independent uploads.
    """
    size = parse_size(size)
    config = config or SimulationConfig()

    env, cluster = scenario.make(config)
    deployment = deploy(system, cluster, observe=observe, policy=policy)

    injected: tuple[str, ...] = ()
    if fault_hook is not None:
        injector = FaultInjector(deployment)
        fault_hook(injector)

    client = deployment.client()
    result = env.run(until=env.process(client.put(path, size)))

    if fault_hook is not None:
        injected = injector.killed()

    # Let trailing blockReceived reports land before checking replication.
    env.run(until=env.now + 1.0)
    return UploadOutcome(
        result=result,
        fully_replicated=deployment.namenode.file_fully_replicated(path),
        system=system,
        scenario=scenario.name,
        injected_faults=injected,
        deployment=deployment if observe else None,
    )


def compare(
    scenario: Scenario,
    size: int | str,
    config: Optional[SimulationConfig] = None,
) -> tuple[UploadOutcome, UploadOutcome, float]:
    """Run both systems on the scenario; returns (hdfs, smarth, improvement%).

    The one HDFS-then-SMARTH step of every figure sweep
    (:mod:`repro.workloads.sweep`)."""
    hdfs = run_upload(scenario, "hdfs", size, config=config)
    smarth = run_upload(scenario, "smarth", size, config=config)
    return hdfs, smarth, improvement_percent(hdfs.duration, smarth.duration)
