"""The floors that are ratios of simulated seconds, and their exact totals.

Three ratios of *simulated* seconds carry a floor: ``policy.fig5_guard``
(the online tuner against the default policy on the fig5 sweep, at least
0.95), ``policy.heterogeneous`` (the tuner strictly ahead of the fixed
0.8 threshold on repeated uploads) and ``read.ranking`` (speed-aware
against locality-only replica ranking, at least 1.1).  Simulated time is
deterministic, so this module is each floor's home: every test pins both
totals exactly and asserts the floor's bound on their ratio beside the
pin, so a deliberate re-pin can never slip under the floor.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.experiments import experiment_config, fig5
from repro.experiments.figures import _scaled
from repro.hdfs import HdfsReader
from repro.policy import OnlineTunerPolicy, Policy
from repro.smarth import SmarthDeployment
from repro.units import MB
from repro.workloads import heterogeneous, run_upload, two_rack


def _upload_series(policy) -> float:
    """Total simulated seconds of 12 sequential 64 MB uploads in 8 MB
    blocks on one long-lived heterogeneous SMARTH deployment."""
    config = SimulationConfig().with_hdfs(block_size=8 * MB)
    env, cluster = heterogeneous().make(config)
    client = SmarthDeployment(cluster, policy=policy).client()
    total = 0.0
    for index in range(12):
        result = env.run(until=env.process(client.put(f"/data/f{index}", 64 * MB)))
        total += result.duration
    return total


class LocalityOnly(Policy):
    """The pre-speed-ranking reference: topology order, nothing else."""

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
    """32 SMARTH uploads of 32 MB in 8 MB blocks warm the registry
    (0.25 s heartbeats, so reports land during the uploads), then the
    total simulated seconds of 8 whole-file reads."""
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
    """``policy.heterogeneous``: on the workload it was built for, the
    tuner beats the paper's fixed 0.8, probing cost included (1.0413x)."""
    fixed = _upload_series(None)
    tuned = _upload_series(OnlineTunerPolicy())
    assert fixed == 23.29813779669002
    assert tuned == 22.374746401891223
    assert tuned < fixed


def test_read_ranking_totals():
    """``read.ranking``: speed-aware ranking at least 1.1x ahead of
    locality-only on a warm registry (1.2414x)."""
    locality = _read_series(LocalityOnly())
    ranked = _read_series(None)
    assert locality == 8.838131467290111
    assert ranked == 7.119425336483289
    assert locality / ranked >= 1.1


def _fig5_smarth_tuned(scale: float) -> float:
    """fig5's 24 SMARTH uploads, in fig5's order, under one shared
    tuner; the sum of their seconds as fig5 rounds them.  fig5's HDFS
    uploads are left out: the tuner learns from SMARTH uploads only."""
    tuner = OnlineTunerPolicy()
    total = 0.0
    for instance in ("small", "medium", "large"):
        for throttle in (None, 100):
            scenario = two_rack(instance, throttle_mbps=throttle)
            for size_gb in (1, 2, 4, 8):
                outcome = run_upload(
                    scenario,
                    "smarth",
                    _scaled(size_gb, scale),
                    config=experiment_config(),
                    policy=tuner,
                )
                total += round(outcome.duration, 1)
    return total


def test_policy_fig5_guard_totals():
    """``policy.fig5_guard`` at scale 0.25: the SMARTH seconds of every
    fig5 point, summed, under the default policy and under one shared
    tuner; the tuner may trail the default by at most 5% (1.1063x)."""
    default = sum(row["smarth_s"] for row in fig5(scale=0.25).rows)
    tuned = _fig5_smarth_tuned(0.25)
    assert default == 1035.1999999999998
    assert tuned == 935.7
    assert default / tuned >= 0.95
