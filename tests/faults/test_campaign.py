"""Fixed-seed chaos campaign: the pytest face of `python -m repro chaos`.

Runs a deterministic campaign (seed 7, 20 randomized schedules, both
protocols) and asserts the report the CLI would print: every run green,
every invariant exercised at least once, every fault kind (including the
compound revive/unthrottle follow-ups) present, and byte-identical JSON
across repeated executions.
"""

from __future__ import annotations

import pytest

from repro.analysis.trace import Journal
from repro.faults import (
    INVARIANT_NAMES,
    ChaosSchedule,
    FaultSpec,
    generate_read_schedule,
    generate_schedule,
    report_json,
    run_campaign,
    run_schedule,
)
from repro.faults.campaign import CHAOS_BLOCK_SIZE

CAMPAIGN_SEED = 7
CAMPAIGN_RUNS = 20
CAMPAIGN_SCALE = 0.5


@pytest.fixture(scope="module")
def campaign() -> dict:
    return run_campaign(
        CAMPAIGN_SEED,
        CAMPAIGN_RUNS,
        protocols=("hdfs", "smarth"),
        scale=CAMPAIGN_SCALE,
    )


class TestCampaignReport:
    def test_all_runs_green(self, campaign: dict) -> None:
        assert campaign["all_green"], report_json(campaign)
        assert campaign["outcomes"] == {
            "completed": CAMPAIGN_RUNS * 2
        }, campaign["outcomes"]

    def test_every_invariant_checked_at_least_once(self, campaign: dict) -> None:
        totals = campaign["invariant_totals"]
        assert set(totals) == set(INVARIANT_NAMES)
        for name in INVARIANT_NAMES:
            assert totals[name]["checks"] >= 1, f"{name} never checked"
            assert totals[name]["violations"] == 0, f"{name} violated"

    def test_fault_kind_coverage(self, campaign: dict) -> None:
        """The generator must exercise kills, kill-busy, throttles and the
        compound follow-ups (revive / unthrottle) within the campaign."""
        kinds = campaign["fault_kinds"]
        for kind in ("kill", "kill_busy", "throttle", "unthrottle", "revive"):
            assert kinds.get(kind, 0) >= 1, f"no {kind} fault generated"

    def test_report_carries_schedules_and_verdicts(self, campaign: dict) -> None:
        assert len(campaign["runs_detail"]) == CAMPAIGN_RUNS
        for index, run in enumerate(campaign["runs_detail"]):
            assert run["subseed"] == CAMPAIGN_SEED + index
            assert run["schedule"]["faults"], "schedule with no faults"
            assert {v["protocol"] for v in run["verdicts"]} == {
                "hdfs",
                "smarth",
            }


class TestDeterminism:
    def test_same_seed_same_schedule(self) -> None:
        assert generate_schedule(123) == generate_schedule(123)
        assert generate_schedule(123) != generate_schedule(124)

    def test_single_run_report_is_byte_identical(self) -> None:
        first = run_campaign(11, 2, protocols=("smarth",), scale=0.25)
        second = run_campaign(11, 2, protocols=("smarth",), scale=0.25)
        assert report_json(first) == report_json(second)

    def test_subseed_repro_regenerates_exact_schedule(self, campaign: dict) -> None:
        """`--seed <subseed> --runs 1` (the repro command attached to any
        red run) reproduces that run's schedule exactly."""
        probe = campaign["runs_detail"][3]
        rerun = run_campaign(
            probe["subseed"], 1, protocols=("hdfs",), scale=CAMPAIGN_SCALE
        )
        assert rerun["runs_detail"][0]["schedule"] == probe["schedule"]


class TestScheduleGeneration:
    def test_kill_budget_below_replication(self) -> None:
        for seed in range(50):
            schedule = generate_schedule(seed)
            kills = sum(
                1
                for f in schedule.faults
                if f.kind in ("kill", "kill_busy")
            )
            assert kills <= 2, f"seed {seed}: {kills} kills > budget"

    def test_size_floor_spans_multiple_blocks(self) -> None:
        for seed in range(20):
            schedule = generate_schedule(seed, scale=0.01)
            assert schedule.size >= 2 * CHAOS_BLOCK_SIZE

    def test_faults_sorted_and_named_nodes_exist(self) -> None:
        for seed in range(50):
            schedule = generate_schedule(seed)
            ats = [f.at for f in schedule.faults]
            assert ats == sorted(ats)
            valid = {f"dn{i}" for i in range(schedule.n_datanodes)}
            for fault in schedule.faults:
                if fault.datanode is not None:
                    assert fault.datanode in valid

    def test_unknown_fault_kind_rejected(self) -> None:
        spec = FaultSpec("meteor", 1.0)
        with pytest.raises(ValueError):
            spec.apply(None)

    def test_unknown_protocol_rejected(self) -> None:
        schedule = generate_schedule(1)
        with pytest.raises(ValueError):
            run_schedule(schedule, "nfs")
        with pytest.raises(ValueError):
            run_campaign(1, 1, protocols=("nfs",))


class TestInvariantMonitorUnit:
    """Drive the journal-event invariants directly with synthetic events,
    which :meth:`InvariantMonitor.stop` checks."""

    @staticmethod
    def _monitor():
        from repro.cluster import SMALL, build_homogeneous
        from repro.config import SimulationConfig
        from repro.faults import InvariantMonitor
        from repro.hdfs import HdfsDeployment
        from repro.sim import Environment

        env = Environment()
        cluster = build_homogeneous(
            env, SMALL, n_datanodes=6, config=SimulationConfig()
        )
        deployment = HdfsDeployment(cluster)
        return deployment, InvariantMonitor(deployment)

    def test_generation_regression_is_flagged(self) -> None:
        deployment, monitor = self._monitor()
        journal: Journal = deployment.journal
        journal.emit(0.0, "pipeline_open", "block:1", generation=2)
        journal.emit(1.0, "pipeline_recovered", "block:1", generation=1)
        monitor.stop()
        record = monitor.records["generation_monotone"]
        assert record.checks == 2
        assert len(record.violations) == 1

    def test_pipeline_cap_overflow_is_flagged(self) -> None:
        deployment, monitor = self._monitor()
        journal: Journal = deployment.journal
        assert monitor.pipeline_cap == 2  # 6 datanodes / replication 3
        for bid in range(3):
            journal.emit(0.0, "pipeline_open", f"block:{bid}", client="c")
        journal.emit(1.0, "pipeline_done", "block:0", client="c")
        journal.emit(1.0, "pipeline_done", "block:1", client="c")
        journal.emit(2.0, "pipeline_open", "block:3", client="c")
        monitor.stop()
        record = monitor.records["pipeline_cap"]
        assert record.checks == 4
        # Only the third open overflows; the last is back under the cap.
        assert record.violations == [
            "client c: 3 live pipelines > cap 2 (t=0.000)"
        ]

    def test_recovery_outcome_rejects_hang_and_crash(self) -> None:
        for outcome, bad in (("completed", False), ("hang", True), ("crash", True)):
            _, monitor = self._monitor()
            monitor.stop()
            monitor.finalize(outcome)
            record = monitor.records["recovery_outcome"]
            assert bool(record.violations) is bad, outcome

    def test_finalize_is_idempotent(self) -> None:
        _, monitor = self._monitor()
        monitor.stop()
        monitor.finalize("completed")
        checks = monitor.records["recovery_outcome"].checks
        monitor.finalize("completed")
        assert monitor.records["recovery_outcome"].checks == checks


class TestLegacyLoopCampaign:
    """Regression: the chaos invariants hold with coalescing disabled.

    ``coalesce_packets=1`` forces every block through the per-packet
    legacy loop, so this campaign exercises the exact recovery paths the
    packet train bypasses (mid-stream error races, requote handling)
    under the same seed-driven fault schedules."""

    SEED = 7
    RUNS = 4
    SCALE = 0.25

    @pytest.fixture(scope="class")
    def legacy_campaign(self, request) -> dict:
        original = ChaosSchedule.config
        patched = lambda self: original(self).with_hdfs(coalesce_packets=1)
        ChaosSchedule.config = patched
        request.addfinalizer(
            lambda: setattr(ChaosSchedule, "config", original)
        )
        return run_campaign(
            self.SEED, self.RUNS, protocols=("hdfs", "smarth"),
            scale=self.SCALE,
        )

    def test_all_green_without_trains(self, legacy_campaign: dict) -> None:
        assert legacy_campaign["all_green"], report_json(legacy_campaign)
        assert legacy_campaign["outcomes"] == {"completed": self.RUNS * 2}

    def test_no_invariant_violations(self, legacy_campaign: dict) -> None:
        for name, tally in legacy_campaign["invariant_totals"].items():
            assert tally["violations"] == 0, f"{name} violated"


@pytest.mark.parametrize("subseed", (43, 70, 79, 115))
def test_smarth_recovers_within_fault_budget(subseed) -> None:
    """Regression: with every pipeline slot held by background pipelines,
    a failed one was never recovered and the upload hung to the deadline
    (sub-seeds 43 and 70); a per-packet send interrupted after its
    pipeline's error was already processed crashed the run (79 and 115)."""
    verdict = run_schedule(generate_schedule(subseed), "smarth")
    assert verdict["outcome"] == "completed", verdict.get("error")
    assert verdict["ok"], verdict["violations"]


def test_traced_run_schedule_report_unchanged(tmp_path) -> None:
    """run_schedule with tracing enabled writes a trace file and returns
    the byte-identical verdict (the tracer is a passive observer), for a
    write and a read schedule alike."""
    import json as _json

    for generate in (generate_schedule, generate_read_schedule):
        schedule = generate(11, scale=0.25)
        plain = run_schedule(schedule, "hdfs")
        trace_path = tmp_path / f"{generate.__name__}.json"
        traced = run_schedule(schedule, "hdfs", trace_path=str(trace_path))
        assert plain == traced
        doc = _json.loads(trace_path.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])


def test_campaign_creates_missing_trace_dir(tmp_path) -> None:
    """--trace-dir pointing at a directory that doesn't exist yet works."""
    trace_dir = tmp_path / "traces" / "nested"
    run_campaign(5, 1, protocols=("hdfs",), scale=0.25, trace_dir=str(trace_dir))
    assert (trace_dir / "run000-hdfs.json").exists()


def test_schedule_round_trips_to_dict() -> None:
    schedule = generate_schedule(42)
    spec = schedule.to_dict()
    assert spec["seed"] == 42
    assert isinstance(schedule, ChaosSchedule)
    assert len(spec["faults"]) == len(schedule.faults)
