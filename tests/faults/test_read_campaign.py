"""Fixed-seed degraded-read chaos campaign.

Ingest a file undisturbed, then kill/throttle replica holders while
concurrent readers stream it back through the bounded serve queue.  The
campaign must stay green: every read completes, ``read_durability``
never sees short data, and the report is byte-identical per seed.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    INVARIANT_NAMES,
    READ_INVARIANT_NAMES,
    generate_read_schedule,
    report_json,
    run_read_campaign,
    run_schedule,
)
from repro.faults.campaign import READ_FANOUT

CAMPAIGN_SEED = 1234
CAMPAIGN_RUNS = 8
CAMPAIGN_SCALE = 0.5


@pytest.fixture(scope="module")
def campaign() -> dict:
    return run_read_campaign(
        CAMPAIGN_SEED,
        CAMPAIGN_RUNS,
        protocols=("hdfs", "smarth"),
        scale=CAMPAIGN_SCALE,
    )


class TestReadCampaignReport:
    def test_all_runs_green(self, campaign: dict) -> None:
        assert campaign["all_green"], report_json(campaign)
        assert campaign["outcomes"] == {
            "completed": CAMPAIGN_RUNS * 2
        }, campaign["outcomes"]

    def test_read_durability_exercised(self, campaign: dict) -> None:
        totals = campaign["invariant_totals"]
        assert set(totals) == set(INVARIANT_NAMES + READ_INVARIANT_NAMES)
        durability = totals["read_durability"]
        # Every reader checks in once per block of every run.
        assert durability["checks"] > CAMPAIGN_RUNS * 2 * READ_FANOUT
        assert durability["violations"] == 0

    def test_kills_actually_landed(self, campaign: dict) -> None:
        assert campaign["fault_kinds"].get("kill", 0) >= 1
        injected = [
            event["kind"]
            for run in campaign["runs_detail"]
            for verdict in run["verdicts"]
            for event in verdict["injected"]
        ]
        assert "kill" in injected

    def test_reads_complete_in_full(self, campaign: dict) -> None:
        for run in campaign["runs_detail"]:
            for verdict in run["verdicts"]:
                assert len(verdict["reads"]) == READ_FANOUT
                for read in verdict["reads"]:
                    assert read["duration"] > 0
                    assert read["sources"]

    def test_report_deterministic(self, campaign: dict) -> None:
        again = run_read_campaign(
            CAMPAIGN_SEED,
            CAMPAIGN_RUNS,
            protocols=("hdfs", "smarth"),
            scale=CAMPAIGN_SCALE,
        )
        assert report_json(campaign) == report_json(again)


class TestReadSchedule:
    def test_schedule_deterministic_per_seed(self) -> None:
        assert generate_read_schedule(42) == generate_read_schedule(42)
        assert generate_read_schedule(42) != generate_read_schedule(43)

    def test_single_schedule_verdict_shape(self) -> None:
        schedule = generate_read_schedule(99, scale=0.5)
        verdict = run_schedule(schedule, "hdfs")
        assert verdict["protocol"] == "hdfs"
        assert verdict["outcome"] == "completed"
        assert verdict["ok"], verdict["violations"]
        assert "read_durability" in verdict["invariants"]
