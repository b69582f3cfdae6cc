"""``benchmarks/check_perf_floor.py``: the perf-smoke gate on host time."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "check_perf_floor", BENCH_DIR / "check_perf_floor.py"
)
check_perf_floor = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_perf_floor)

FLOORS = json.loads((BENCH_DIR / "perf_floor.json").read_text())
GROUPS = {
    group: sections
    for group, sections in FLOORS.items()
    if group not in ("comment", "tolerance")
}

LIMITS = {
    "fast": {"events_per_sec": 1000},
    "ratio": {"min_speedup": 2.0},
    "fanout": {"min_speedup": 2.0, "min_cpus": 4},
}


def _check(tmp_path, monkeypatch, bench):
    """``check_group`` of ``LIMITS`` against ``bench`` (or no file)."""
    monkeypatch.setattr(check_perf_floor, "RESULTS_DIR", tmp_path)
    if bench is not None:
        (tmp_path / "BENCH_demo.json").write_text(json.dumps(bench))
    rows = []
    failures = check_perf_floor.check_group("demo", LIMITS, 0.3, rows)
    return failures, {row[0]: row[3] for row in rows}


def test_pass(tmp_path, monkeypatch):
    failures, status = _check(
        tmp_path,
        monkeypatch,
        {
            "fast": {"events_per_sec": 701},
            "ratio": {"speedup": 2.0},
            "fanout": {"speedup": 2.5, "cpus": 4},
        },
    )
    assert failures == []
    assert status == {
        "demo.fast.events_per_sec": "ok",
        "demo.ratio.speedup": "ok",
        "demo.fanout.speedup": "ok",
    }


def test_below_tolerance(tmp_path, monkeypatch):
    failures, status = _check(
        tmp_path,
        monkeypatch,
        {
            "fast": {"events_per_sec": 699},
            "ratio": {"speedup": 1.99},
            "fanout": {"speedup": 1.5, "cpus": 8},
        },
    )
    assert failures == [
        "demo.fast.events_per_sec 699 < 700",
        "demo.ratio.speedup 1.99 < 2.0",
        "demo.fanout.speedup 1.5 < 2.0",
    ]
    assert set(status.values()) == {"FAIL"}


def test_min_cpus_skips_the_speedup(tmp_path, monkeypatch):
    failures, status = _check(
        tmp_path,
        monkeypatch,
        {
            "fast": {"events_per_sec": 5000},
            "ratio": {"speedup": 3.0},
            "fanout": {"speedup": 1.0, "cpus": 2},
        },
    )
    assert failures == []
    assert status["demo.fanout.speedup"] == "skip (2 cpus < min_cpus 4)"


def test_missing_file(tmp_path, monkeypatch):
    failures, status = _check(tmp_path, monkeypatch, None)
    assert len(failures) == 1 and "BENCH_demo.json" in failures[0]
    assert status == {"demo": "MISSING"}


def test_missing_section(tmp_path, monkeypatch):
    failures, status = _check(
        tmp_path,
        monkeypatch,
        {"fast": {"events_per_sec": 5000}, "ratio": {"speedup": 3.0}},
    )
    assert failures == ["demo.fanout: missing from BENCH_demo.json"]
    assert status["demo.fanout"] == "MISSING"


def test_floors_are_host_floors_only():
    """Deterministic ratios live in tier-1 beside their exact pins, so a
    floor section holds only the host keys the checker reads."""
    assert set(FLOORS) - set(GROUPS) == {"comment", "tolerance"}
    keys = {
        key
        for sections in GROUPS.values()
        for limits in sections.values()
        for key in limits
    }
    assert keys <= {"events_per_sec", "min_speedup", "min_cpus"}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_every_group_has_a_script_and_results(group):
    """Each group names its script and a committed results file that
    holds every floored section."""
    assert (BENCH_DIR / f"bench_{group}.py").is_file()
    results = BENCH_DIR / "results" / f"BENCH_{group}.json"
    assert set(GROUPS[group]) <= set(json.loads(results.read_text()))
