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
from repro.faults.campaign import (
    ChaosSchedule,
    report_json,
    run_campaign,
    run_read_campaign,
)
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


def _started_trains(monkeypatch) -> list:
    """Every packet train started from now on, in start order."""
    started = []
    start = train.PacketTrain.start

    def counted_start(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(train.PacketTrain, "start", counted_start)
    return started


def test_chaos_report_identical_per_seed(monkeypatch):
    """A fixed-seed chaos campaign with scheduled kills runs its write
    blocks as packet trains, which settle, pause and resume as the
    per-packet loop does: the report matches that loop's byte for byte."""
    started = _started_trains(monkeypatch)
    fast = run_campaign(seed=11, runs=2, protocols=("hdfs", "smarth"), scale=0.1)
    assert {"kill", "kill_busy"} <= set(fast["fault_kinds"])
    assert started
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
    started = _started_trains(monkeypatch)
    fast = run_campaign(seed=subseed, runs=1)
    kinds = fast["fault_kinds"]
    assert kinds and set(kinds) <= {"throttle", "unthrottle"}
    assert started
    _per_packet_chaos(monkeypatch)
    legacy = run_campaign(seed=subseed, runs=1)
    assert report_json(fast) == report_json(legacy)


#: Write sub-seeds (scale 1.0) in which a sibling pipeline fails while a
#: SMARTH block streams, so Algorithm 4 pauses that block mid-stream.  In
#: 295 and 410 the pause stops the block after its first packet.
PAUSE_SUBSEEDS = (8, 230, 244, 247, 256, 295, 410, 457, 531, 566, 594)


def _held_trains(monkeypatch) -> list:
    """The planned rows of every train a pause held mid-block."""
    held = []
    hold = train.PacketTrain.hold

    def recorded_hold(self, at):
        paused = hold(self, at)
        if self.held:
            held.append(self._K)
        return paused

    monkeypatch.setattr(train.PacketTrain, "hold", recorded_hold)
    return held


@pytest.mark.parametrize("subseed", PAUSE_SUBSEEDS)
def test_pause_mid_block_identical_on_trains(monkeypatch, subseed):
    """A train held mid-block by Algorithm 4's pause stops after the same
    packet as the per-packet loop and resumes at the same instant: the
    report matches that loop's byte for byte."""
    held = _held_trains(monkeypatch)
    fast = run_campaign(subseed, 1)
    assert held and all(0 < rows < 32 for rows in held)
    _per_packet_chaos(monkeypatch)
    legacy = run_campaign(subseed, 1)
    assert report_json(fast) == report_json(legacy)


def _smarth_traces(monkeypatch, tmp_path, subseed) -> tuple[str, str]:
    """Sub-seed ``subseed``'s SMARTH trace on trains, then per packet."""
    name = "run000-smarth.json"
    run_campaign(subseed, 1, protocols=("smarth",), trace_dir=str(tmp_path / "t"))
    _per_packet_chaos(monkeypatch)
    run_campaign(subseed, 1, protocols=("smarth",), trace_dir=str(tmp_path / "p"))
    return (tmp_path / "t" / name).read_text(), (tmp_path / "p" / name).read_text()


def test_pause_trace_identical_on_trains(monkeypatch, tmp_path):
    """Sub-seed 8 pauses block 1002 after its eighth packet: the exported
    SMARTH trace (stream, store, forward and ACK spans, journal instants)
    matches the per-packet loop's."""
    held = _held_trains(monkeypatch)
    trains, packets = _smarth_traces(monkeypatch, tmp_path, 8)
    assert held == [8]
    assert trains == packets


@pytest.mark.parametrize("subseed", (35, 70, 244))
def test_kill_after_last_forward_trace_identical(monkeypatch, tmp_path, subseed):
    """In these sub-seeds a kill fails a SMARTH pipeline after one of its
    hops forwarded the block's last packet: the per-packet forwarder
    closed its span at that landing, and so does the train's error
    settle, before the aborts close the rest."""
    trains, packets = _smarth_traces(monkeypatch, tmp_path, subseed)
    assert trains == packets


def test_golden_write_campaign_runs_on_trains(monkeypatch):
    """The golden write campaign (``run_campaign(7, 4, scale=0.25)``, both
    protocols, kills and a revive included) offers 16 blocks to the write
    planner and gets a train for every one."""
    from repro.hdfs.client import data_streamer
    from repro.smarth import multi_writer

    tally = {"planned": 0, "declined": 0}
    for module in (data_streamer, multi_writer):

        def counted(*args, plan=module.plan_train):
            planned = plan(*args)
            tally["declined" if planned is None else "planned"] += 1
            return planned

        monkeypatch.setattr(module, "plan_train", counted)
    report = run_campaign(7, 4, scale=0.25)
    assert report["fault_kinds"]["kill"] and report["all_green"]
    assert tally == {"planned": 16, "declined": 0}


def test_golden_read_campaign_runs_on_trains(monkeypatch):
    """The golden read campaign (``run_read_campaign(7, 4, scale=0.25)``,
    both protocols, kills and a revive included) offers 48 block streams
    to the read planner and puts every one on its reader host's train,
    up to three beside each other."""
    from repro.hdfs.client import input_stream

    tally = {"planned": 0, "declined": 0}

    def counted(*args, plan=input_stream.plan_read_train):
        planned = plan(*args)
        tally["declined" if planned is None else "planned"] += 1
        return planned

    monkeypatch.setattr(input_stream, "plan_read_train", counted)
    beside = []
    join = train.ReadTrain._join

    def recording(read_train, stream):
        join(read_train, stream)
        beside.append(len(read_train._streams))

    monkeypatch.setattr(train.ReadTrain, "_join", recording)
    report = run_read_campaign(7, 4, scale=0.25)
    assert report["fault_kinds"]["kill"] and report["all_green"]
    assert tally == {"planned": 48, "declined": 0}
    assert max(beside) == 3
