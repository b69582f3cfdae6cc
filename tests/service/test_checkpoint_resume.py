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
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.policy import policy_class
from repro.service import IngestService, load_snapshot, save_snapshot
from repro.sim import SnapshotError

from .specs import golden_spec

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_service_digests.json"
#: The source root that holds the package under test.
SRC = Path(repro.__file__).resolve().parents[1]


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


def test_fresh_and_resumed_services_run_the_default_policy(tmp_path):
    """A service names no policy, so both its fresh and its resumed
    deployments hold the stateless default: a snapshot has no policy
    state to carry."""
    _straight(golden_spec(), tmp_path)
    fresh = IngestService(golden_spec())
    resumed = IngestService.resume(tmp_path / "ckpt_001.pkl")
    for service in (fresh, resumed):
        assert type(service.deployment.policy) is policy_class("default")


def test_chaos_run_actually_exercised_faults():
    report = IngestService(golden_spec(chaos=True)).run()
    assert report.counts["faults_applied"] == 4
    assert report.counts["arrivals"] > 0
    assert report.counts["completed"] > 0
    assert report.counts["conservation_ok"]
    assert report.counts["queue_bounded"]
    assert report.counts["inflight_bounded"]


def test_snapshot_round_trips_plain_state(tmp_path):
    """A snapshot holds the quiescent service itself: its schedule is
    empty, so the whole object graph is plain data, and ``save_snapshot``
    refuses a service with an event pending."""
    spec = golden_spec()
    _straight(spec, tmp_path)
    service = load_snapshot(tmp_path / "ckpt_002.pkl")
    assert isinstance(service, IngestService)
    assert service.spec == spec
    assert service.report().counts["segments"] == 2
    assert service.checkpoints_written == 2
    assert len(service.env) == 0
    # The segment driver stops once the last arrival before the t=120
    # boundary has drained, so the snapshot clock sits somewhere inside
    # the second segment — not necessarily at the boundary itself.
    assert service.env.now >= 60.0

    service.env.timeout(1.0)
    busy = tmp_path / "busy.pkl"
    with pytest.raises(SnapshotError, match="1 events pending"):
        save_snapshot(busy, service)
    assert not busy.exists()


#: Resumes each snapshot named on the command line and writes its final
#: report as JSON beside it; prints this interpreter's hash of a string.
_RESUME_SCRIPT = """
import sys
from pathlib import Path
from repro.service import IngestService
for name in sys.argv[1:]:
    report = IngestService.resume(name).run()
    Path(name).with_suffix(".json").write_text(report.to_json())
print(hash("snapshot"))
"""


def test_resume_in_a_fresh_interpreter_with_another_hash_seed(tmp_path):
    """A snapshot carries no state of the interpreter that wrote it: a
    fresh one, hashing strings differently, resumes each checkpoint of
    the chaos run to the straight run's report."""
    _, straight = _straight(golden_spec(chaos=True), tmp_path)
    checkpoints = sorted(str(p) for p in tmp_path.glob("ckpt_*.pkl"))
    assert len(checkpoints) == 3
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT, *checkpoints],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(child.stdout) != hash("snapshot")
    for ckpt in checkpoints:
        resumed = Path(ckpt).with_suffix(".json").read_text()
        assert resumed == straight.to_json(), ckpt


def test_checkpoint_cycle_pickles_nothing_deprecated(tmp_path):
    """CPython 3.12 deprecates pickling itertools objects and 3.14
    removes it: a snapshot holds none, and the cycle warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        _, straight = _straight(golden_spec(chaos=True), tmp_path)
        resumed = IngestService.resume(tmp_path / "ckpt_001.pkl").run()
    assert resumed.to_json() == straight.to_json()
    for ckpt in sorted(tmp_path.glob("ckpt_*.pkl")):
        assert b"itertools" not in ckpt.read_bytes(), ckpt.name
