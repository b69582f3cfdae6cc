"""Pod-partitioned workloads: every executor yields the same timeline."""

import pytest

from repro.config import SimulationConfig
from repro.pool import WorkerFailure
from repro.units import KB, MB
from repro.workloads import (
    PodPlan,
    PodSpec,
    campaign10k,
    run_pods_single_env,
    run_pods_sharded,
)


def small_plan(n_pods=3):
    return PodPlan.regular(
        n_pods=n_pods,
        clients_per_pod=2,
        datanodes_per_pod=4,
        file_bytes=256 * KB,
    )


def small_config():
    return SimulationConfig(seed=7).with_hdfs(
        block_size=128 * KB, packet_size=32 * KB
    )


class TestPlan:
    def test_pod_validation(self):
        with pytest.raises(ValueError):
            PodSpec(index=0, n_clients=0, n_datanodes=4,
                    file_bytes=KB, stagger=0.0)
        with pytest.raises(ValueError):
            PodSpec(index=0, n_clients=1, n_datanodes=0,
                    file_bytes=KB, stagger=0.0)
        with pytest.raises(ValueError):
            PodPlan.regular(0, 1, 1, KB)

    def test_regular_plan_totals(self):
        plan = small_plan(n_pods=3)
        assert plan.n_clients == 6
        assert plan.n_datanodes == 12
        assert [pod.index for pod in plan.pods] == [0, 1, 2]

    def test_shard_assignment_round_robin(self):
        plan = small_plan(n_pods=5)
        groups = plan.shard_assignment(2)
        assert [[pod.index for pod in group] for group in groups] == [
            [0, 2, 4],
            [1, 3],
        ]
        with pytest.raises(ValueError):
            plan.shard_assignment(0)

    def test_campaign10k_full_scale_shape(self):
        plan = campaign10k()
        assert len(plan.pods) == 100
        assert plan.n_clients == 10_000
        assert plan.n_datanodes == 1_000
        assert plan.pods[0].file_bytes == 4 * MB
        assert plan.pods[0].stagger == 0.5

    def test_campaign10k_scale_drops_pods_not_shape(self):
        plan = campaign10k(scale=0.02)
        assert len(plan.pods) == 2
        assert plan.pods[0].n_clients == 100
        assert plan.pods[0].n_datanodes == 10
        assert len(campaign10k(scale=0.001).pods) == 1  # floor of one pod
        with pytest.raises(ValueError):
            campaign10k(scale=0.0)


class TestExecutorEquivalence:
    def test_all_executors_agree_exactly(self):
        """The single-env and process-pool executors produce identical
        per-client timelines — the property the benchmark is built on."""
        plan = small_plan()
        config = small_config()
        baseline = run_pods_single_env(plan, config=config)
        procs = run_pods_sharded(plan, shards=2, config=config)

        assert baseline.executor == "single"
        assert procs.executor == "processes"

        assert baseline.timeline  # non-trivial run
        assert procs.timeline == baseline.timeline
        assert baseline.fully_replicated
        assert procs.fully_replicated
        assert baseline.makespan > 0

    @pytest.mark.parametrize("shards", [1, 2, 3])
    def test_per_pod_environments_match_single_env(self, shards):
        """Each pod in a fresh environment (``shards=1`` runs them one
        after another) replays the single-env timeline exactly.  Event
        counts differ by design: each environment dispatches its own
        run-until events and stops at its own pod's finish."""
        plan = small_plan()
        config = small_config()
        baseline = run_pods_single_env(plan, config=config)
        outcome = run_pods_sharded(plan, shards=shards, config=config, jobs=1)
        assert outcome.timeline == baseline.timeline
        assert outcome.fully_replicated

    def test_process_executor_reports_per_shard_events(self):
        outcome = run_pods_sharded(
            small_plan(), shards=3, config=small_config(), jobs=1
        )
        assert outcome.shard_events is not None
        assert len(outcome.shard_events) == 3
        assert outcome.events_processed == sum(outcome.shard_events)

    def test_more_shards_than_pods(self):
        """Empty shard groups are dropped, not run as empty workers."""
        plan = small_plan(n_pods=2)
        outcome = run_pods_sharded(
            plan, shards=4, config=small_config(), jobs=1
        )
        assert len(outcome.shard_events) == 2
        assert len(outcome.timeline) == plan.n_clients

    def test_hdfs_baseline_system_also_supported(self):
        plan = small_plan(n_pods=2)
        config = small_config()
        baseline = run_pods_single_env(plan, system="hdfs", config=config)
        procs = run_pods_sharded(plan, shards=2, system="hdfs",
                                 config=config, jobs=1)
        assert procs.timeline == baseline.timeline

    def test_bytes_moved_accounts_for_replication(self):
        """Single-env outcomes report aggregate NIC bytes; every byte
        sent lands somewhere, and replication moves each file at least
        ``replication`` times."""
        plan = small_plan(n_pods=2)
        config = small_config()
        outcome = run_pods_single_env(plan, config=config)
        sent, received = outcome.bytes_moved
        assert sent == received
        payload = sum(pod.n_clients * pod.file_bytes for pod in plan.pods)
        assert sent >= payload * config.hdfs.replication

    def test_worker_failure_is_named(self, monkeypatch):
        import repro.workloads.sharded as sharded_mod

        def explode(*_args, **_kwargs):
            raise RuntimeError("pod build blew up")

        monkeypatch.setattr(sharded_mod, "_run_pod_group", explode)
        with pytest.raises(WorkerFailure, match="shard0"):
            run_pods_sharded(
                small_plan(n_pods=2), shards=2,
                config=small_config(), jobs=1,
            )

