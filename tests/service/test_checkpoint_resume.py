"""Checkpoint/resume determinism goldens.

The core acceptance property of the service tentpole: a fixed-seed run
snapshotted at each interior barrier must continue **byte-identically**
when resumed from any of those snapshots — same journal, same metrics
summary, same per-tenant SLO table — with and without a chaos plan
whose faults straddle the barriers.

The straight run's digests are additionally pinned in
``golden_service_digests.json`` (regenerate with ``regen_goldens.py``)
so cross-version drift is caught even if straight and resumed drift
*together*.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import IngestService, load_snapshot

from .specs import golden_spec

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_service_digests.json"


def _straight(spec, checkpoint_dir):
    service = IngestService(spec)
    report = service.run(checkpoint_dir=checkpoint_dir)
    return service, report


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
def test_resume_is_byte_identical(tmp_path, chaos):
    spec = golden_spec(chaos=chaos)
    service, straight = _straight(spec, tmp_path)
    assert service.checkpoints_written == 3

    checkpoints = sorted(tmp_path.glob("ckpt_*.pkl"))
    assert [p.name for p in checkpoints] == [
        "ckpt_001.pkl",
        "ckpt_002.pkl",
        "ckpt_003.pkl",
    ]
    for ckpt in checkpoints:
        resumed = IngestService.resume(ckpt).run()
        assert resumed.journal_text == straight.journal_text, ckpt.name
        assert resumed.metrics_text == straight.metrics_text, ckpt.name
        assert resumed.slo_text == straight.slo_text, ckpt.name
        assert resumed.counts == straight.counts, ckpt.name


@pytest.mark.parametrize("chaos", [False, True], ids=["plain", "chaos"])
def test_straight_run_matches_golden(chaos):
    golden = json.loads(GOLDEN.read_text())[("chaos" if chaos else "plain")]
    report = IngestService(golden_spec(chaos=chaos)).run()
    assert report.digests() == golden["digests"]
    assert report.counts == golden["counts"]


def test_chaos_run_actually_exercised_faults():
    report = IngestService(golden_spec(chaos=True)).run()
    assert report.counts["faults_applied"] == 4
    assert report.counts["arrivals"] > 0
    assert report.counts["completed"] > 0
    assert report.counts["conservation_ok"]
    assert report.counts["queue_bounded"]
    assert report.counts["inflight_bounded"]


def test_snapshot_round_trips_plain_state(tmp_path):
    spec = golden_spec()
    service, _ = _straight(spec, tmp_path)
    state = load_snapshot(tmp_path / "ckpt_002.pkl")
    assert state["spec"] == spec
    assert state["segment_index"] == 2
    # Snapshots hold plain data only — no generators, processes or
    # environment references may sneak in.
    import pickle

    pickle.loads(pickle.dumps(state))
    assert isinstance(state["clock"], dict)
    # The segment driver stops once the last arrival before the t=120
    # boundary has drained, so the snapshot clock sits somewhere inside
    # the second segment — not necessarily at the boundary itself.
    assert state["clock"]["now"] >= 60.0
    assert isinstance(state["journal"], list)
