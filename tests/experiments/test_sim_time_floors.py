"""Exact simulated-time totals behind the perf floors that are ratios.

``perf_floor.json`` floors three ratios of *simulated* seconds:
``policy.fig5_guard`` (the online tuner against the default policy on the
fig5 sweep), ``policy.heterogeneous`` (the tuner against the fixed 0.8
threshold on repeated uploads) and ``read.ranking`` (speed-aware against
locality-only replica ranking).  Simulated time is deterministic, so each
pin here restates its benchmark's shape and requires both totals
exactly, which is stricter than the floor and runs on every commit.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.experiments import fig5
from repro.hdfs import HdfsReader
from repro.policy import OnlineTunerPolicy, Policy, use_policy
from repro.smarth import SmarthDeployment
from repro.units import MB
from repro.workloads import heterogeneous


def _upload_series(policy) -> float:
    """``bench_policy._upload_series``: 12 sequential 64 MB uploads in
    8 MB blocks on one heterogeneous SMARTH deployment."""
    config = SimulationConfig().with_hdfs(block_size=8 * MB)
    env, cluster = heterogeneous().make(config)
    client = SmarthDeployment(cluster, policy=policy).client()
    total = 0.0
    for index in range(12):
        result = env.run(until=env.process(client.put(f"/data/f{index}", 64 * MB)))
        total += result.duration
    return total


class LocalityOnly(Policy):
    """``bench_read.LocalityOnlyPolicy``: topology order, nothing else."""

    name = "pin-locality-only"

    def rank_replicas(self, client, block_id, candidates, node):
        topology = self.deployment.network.topology
        if node.name in topology:
            candidates.sort(key=lambda dn: topology.distance(node.name, dn))
        else:
            candidates.sort(
                key=lambda dn: 0 if topology.rack_of(dn) == node.rack else 1
            )
        return candidates


def _read_series(policy) -> float:
    """``bench_read._read_series``: 32 SMARTH uploads of 32 MB in 8 MB
    blocks warm the registry (0.25 s heartbeats), then 8 whole-file
    reads."""
    config = SimulationConfig().with_hdfs(
        block_size=8 * MB, heartbeat_interval=0.25
    )
    env, cluster = heterogeneous().make(config)
    deployment = SmarthDeployment(cluster, policy=policy)
    client = deployment.client()
    for index in range(32):
        env.run(until=env.process(client.put(f"/data/f{index}", 32 * MB)))
    reader = HdfsReader(deployment)
    total = 0.0
    for index in range(8):
        result = env.run(until=env.process(reader.get(f"/data/f{index}")))
        total += result.duration
    return total


def test_policy_heterogeneous_totals():
    """``bench_policy.test_policy_heterogeneous_head_to_head``."""
    assert _upload_series(None) == 23.29813779669002
    assert _upload_series(OnlineTunerPolicy()) == 22.374746401891223


def test_read_ranking_totals():
    """``bench_read.test_read_ranking``."""
    assert _read_series(LocalityOnly()) == 8.838131467290111
    assert _read_series(None) == 7.119425336483289


def test_policy_fig5_guard_totals():
    """``bench_policy.test_policy_fig5_guard`` at the smoke scale 0.25:
    the SMARTH seconds of every fig5 point, summed."""
    default = sum(row["smarth_s"] for row in fig5(scale=0.25).rows)
    with use_policy(OnlineTunerPolicy()):
        tuned = sum(row["smarth_s"] for row in fig5(scale=0.25).rows)
    assert default == 1035.1999999999998
    assert tuned == 935.7
