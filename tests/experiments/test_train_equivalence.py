"""On-vs-off equivalence of packet-train coalescing at experiment scale.

The golden-results test already pins the default (trains-on) runs to the
seed snapshots; this file closes the loop by running the same drivers
with ``coalesce_packets=1`` (the per-packet legacy loop) and comparing
the complete result tables, so the equivalence claim does not depend on
which mode the snapshots were taken in.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.figures import experiment_config
from repro.faults.campaign import ChaosSchedule, report_json, run_campaign
from repro.hdfs import train

SCALE = 0.25
LEGACY_CONFIG = experiment_config().with_hdfs(coalesce_packets=1)


def _normalized(result) -> dict:
    rows = [
        dict(zip(result.columns, row)) if not isinstance(row, dict) else row
        for row in result.rows
    ]
    return json.loads(
        json.dumps(
            {
                "rows": rows,
                "measured": {k: str(v) for k, v in result.measured.items()},
            },
            sort_keys=True,
        )
    )


def test_fig5_identical_with_and_without_trains():
    fast = _normalized(ALL_EXPERIMENTS["fig5"](scale=SCALE))
    legacy = _normalized(
        ALL_EXPERIMENTS["fig5"](config=LEGACY_CONFIG, scale=SCALE)
    )
    assert fast == legacy


def test_faultrec_identical_with_and_without_trains():
    fast = _normalized(ALL_EXPERIMENTS["faultrec"](scale=SCALE))
    legacy = _normalized(
        ALL_EXPERIMENTS["faultrec"](config=LEGACY_CONFIG, scale=SCALE)
    )
    assert fast == legacy


def _per_packet_chaos(monkeypatch) -> None:
    original = ChaosSchedule.config
    monkeypatch.setattr(
        ChaosSchedule,
        "config",
        lambda self: original(self).with_hdfs(coalesce_packets=1),
    )


def test_chaos_report_identical_per_seed(monkeypatch):
    """A fixed-seed chaos campaign produces a byte-identical report in
    both modes (every schedule with a kill registers it up front, so
    trains stand down and the per-packet timeline replays verbatim)."""
    fast = run_campaign(seed=11, runs=2, protocols=("hdfs", "smarth"), scale=0.1)
    _per_packet_chaos(monkeypatch)
    legacy = run_campaign(
        seed=11, runs=2, protocols=("hdfs", "smarth"), scale=0.1
    )
    assert report_json(fast) == report_json(legacy)


@pytest.mark.parametrize("subseed", (1, 2))
def test_throttle_only_chaos_identical_on_trains(monkeypatch, subseed):
    """Write sub-seeds 1 and 2 schedule throttles only, so their blocks
    run as packet trains that replay each throttle change; the report
    matches the per-packet loop's byte for byte."""
    started = []
    start = train.PacketTrain.start

    def counted_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(train.PacketTrain, "start", counted_start)
    fast = run_campaign(seed=subseed, runs=1)
    kinds = fast["fault_kinds"]
    assert kinds and set(kinds) <= {"throttle", "unthrottle"}
    assert started
    _per_packet_chaos(monkeypatch)
    legacy = run_campaign(seed=subseed, runs=1)
    assert report_json(fast) == report_json(legacy)
