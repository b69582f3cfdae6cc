"""Reusable policy-conformance checks (the contract in DESIGN.md §12).

Every policy registered with :func:`repro.policy.register_policy` must
pass the checks in this module — ``tests/policy/test_conformance.py``
drives them over ``policy_names()``, so registering a new policy
automatically enrolls it.  The contract:

* **Interface** — the registry can build it, its replication hooks
  never target fewer replicas than the configured factor, and its
  tuning/describe hooks return the documented types.
* **Determinism** — the same (seed, workload, policy name) produces the
  same upload fingerprint, run to run.  Policies may keep *learned*
  state but must not read wall clocks or unseeded RNGs.
* **Durability under chaos** — a fixed-seed fault campaign stays all
  green: no acked-durability or replication-convergence violations, no
  hangs.  Adaptive replica counts must never cost an acked byte.
* **Re-replication convergence** — after a post-write holder death the
  monitor heals every block back to at least the configured base
  factor.

Import these from new policy test modules rather than re-deriving the
scenarios; the fingerprints are intentionally strict (full per-block
pipeline layouts, not just durations).
"""

from __future__ import annotations

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.faults import report_json, run_campaign
from repro.hdfs import HdfsDeployment
from repro.policy import ClientTuning, Policy, policy_class
from repro.sim import Environment
from repro.units import KB, MB
from repro.workloads import heterogeneous, run_upload

__all__ = [
    "build_deployment",
    "upload_fingerprint",
    "check_interface",
    "check_determinism",
    "check_chaos_durability",
    "check_rereplication_convergence",
    "check_read_feedback",
]


def build_deployment(policy, n_datanodes: int = 9, seed: int = 20140901):
    """A small homogeneous HDFS deployment with fast monitor cadence."""
    env = Environment()
    config = SimulationConfig(seed=seed).with_hdfs(
        block_size=2 * MB,
        packet_size=64 * KB,
        heartbeat_interval=1.0,
        dead_node_heartbeats=3,
    )
    cluster = build_homogeneous(
        env, SMALL, n_datanodes=n_datanodes, config=config
    )
    return env, HdfsDeployment(cluster, policy=policy)


def upload_fingerprint(
    policy, seed: int = 20140901, system: str = "smarth", size: int = 32 * MB
):
    """Everything determinism cares about from one fresh-cluster upload."""
    outcome = run_upload(
        heterogeneous(),
        system,
        size,
        config=SimulationConfig(seed=seed),
        policy=policy,
    )
    result = outcome.result
    return (
        result.duration,
        result.n_blocks,
        tuple(tuple(p) for p in result.pipelines),
        result.max_concurrent_pipelines,
        outcome.fully_replicated,
    )


# ----------------------------------------------------------------------
def check_interface(name: str) -> None:
    """The registry contract: buildable, typed hooks, sane describe()."""
    cls = policy_class(name)
    assert issubclass(cls, Policy)
    assert cls.name == name
    _, deployment = build_deployment(name)
    policy = deployment.policy
    assert isinstance(policy, cls)
    assert policy.deployment is deployment

    base = deployment.config.hdfs.replication
    assert policy.replication == base
    assert policy.scan_replication() >= base
    assert policy.target_replication(0, 0.0) >= base

    tuning = policy.tuning_for("client")
    assert isinstance(tuning, ClientTuning)
    description = policy.describe()
    assert description["name"] == name


def check_determinism(name: str, seed: int = 20140901) -> None:
    """Same seed + same workload => identical upload fingerprint."""
    for system in ("hdfs", "smarth"):
        first = upload_fingerprint(name, seed=seed, system=system)
        second = upload_fingerprint(name, seed=seed, system=system)
        assert first == second, f"{name}/{system} not deterministic"


def check_chaos_durability(
    name: str, seed: int = 7, runs: int = 2, scale: float = 0.25
) -> dict:
    """Fixed-seed chaos campaign under the policy must stay all green."""
    report = run_campaign(
        seed, runs, protocols=("hdfs", "smarth"), scale=scale, policy=name
    )
    assert report["all_green"], report_json(report)
    totals = report["invariant_totals"]
    assert totals["acked_durability"]["violations"] == 0
    assert totals["replication_convergence"]["violations"] == 0
    assert report["policy"] == name
    return report


def check_read_feedback(name: str) -> None:
    """The read path works under the policy and feeds it back.

    ``rank_replicas`` must return a permutation of the live holders it
    was handed (drop or duplicate a replica and degraded reads break),
    whole-file reads must complete in full from real holders, and
    ``note_read`` must fire once per block — the popularity feed adaptive
    replication policies learn from.
    """
    from repro.hdfs import HdfsReader

    env, deployment = build_deployment(name)
    client = deployment.client()
    env.run(until=env.process(client.put("/f", 6 * MB)))

    namenode = deployment.namenode
    reader = HdfsReader(deployment)
    inode = namenode.namespace.get("/f")
    for block in inode.blocks:
        holders = set(namenode.blocks.locations(block.block_id))
        ranked = reader._candidates(block)
        assert len(ranked) == len(holders), (
            f"{name}: rank_replicas changed the candidate count for "
            f"block {block.block_id}"
        )
        assert set(ranked) == holders, (
            f"{name}: rank_replicas is not a permutation of the holders"
        )

    policy = deployment.policy
    fed: list[tuple[int, str]] = []
    original = policy.note_read

    def recording_note_read(block_id: int, datanode: str) -> None:
        fed.append((block_id, datanode))
        original(block_id, datanode)

    policy.note_read = recording_note_read
    try:
        result = env.run(until=env.process(reader.get("/f")))
    finally:
        policy.note_read = original

    assert result.size == inode.size
    assert len(result.sources) == len(inode.blocks)
    assert fed == result.sources, (
        f"{name}: note_read calls {fed} diverge from the sources actually "
        f"read {result.sources}"
    )
    for block_id, source in result.sources:
        assert source in namenode.blocks.locations(block_id)


def check_rereplication_convergence(name: str) -> None:
    """A post-write holder death heals back to >= the base factor."""
    env, deployment = build_deployment(name)
    client = deployment.client()
    result = env.run(until=env.process(client.put("/f", 4 * MB)))
    namenode = deployment.namenode
    assert namenode.file_fully_replicated("/f")

    victim = result.pipelines[0][0]
    deployment.datanode(victim).kill()
    env.run(until=env.now + 60)

    assert namenode.file_fully_replicated("/f"), f"{name} failed to heal"
    base = deployment.config.hdfs.replication
    for block in namenode.namespace.get("/f").blocks:
        replicas = namenode.blocks.locations(block.block_id)
        assert victim not in replicas
        assert len(replicas) >= base
