"""``scripts/ledger_counts.py``: the diff of two traced ledger envelopes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ledger_counts.py"
_spec = importlib.util.spec_from_file_location("ledger_counts", SCRIPT)
ledger_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_counts)


def _envelope(tmp_path: Path, name: str, workloads: dict) -> str:
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "manifest": {},
                "workloads": {w: {"layers": l} for w, l in workloads.items()},
            }
        )
    )
    return str(path)


BASE = {
    "chaos": {
        "sim.events": 238836,
        "sim.self_s": 1.0,
        "sim.share": 0.5,
        "sim.us_per_event": 4.0,
        "trace_overhead": 3.0,
        "hdfs.train.write_coverage": 0.25,
        "net.quotes": 37154,
    },
    "paper": {"sim.events": 263851},
}


def test_identical_counts_print_nothing(tmp_path, capsys) -> None:
    head = json.loads(json.dumps(BASE))
    head["chaos"]["sim.self_s"] = 2.0  # host time: ignored
    head["chaos"]["trace_overhead"] = 9.0
    code = ledger_counts.main(
        [_envelope(tmp_path, "b.json", BASE), _envelope(tmp_path, "h.json", head)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def test_changed_and_missing_counts_are_listed(tmp_path, capsys) -> None:
    head = json.loads(json.dumps(BASE))
    head["chaos"]["sim.events"] = 236471
    head["chaos"]["hdfs.train.write_coverage"] = 0.5
    del head["chaos"]["net.quotes"]
    head["service"] = {"sim.events": 127125}
    code = ledger_counts.main(
        [_envelope(tmp_path, "b.json", BASE), _envelope(tmp_path, "h.json", head)]
    )
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "chaos hdfs.train.write_coverage 0.25 -> 0.5",
        "chaos net.quotes 37154 -> -",
        "chaos sim.events 238836 -> 236471",
        "service sim.events - -> 127125",
    ]


def test_untraced_envelope_is_refused(tmp_path, capsys) -> None:
    untraced = _envelope(tmp_path, "u.json", {"paper": {}})
    code = ledger_counts.main([_envelope(tmp_path, "b.json", BASE), untraced])
    assert code == 2
    assert "no per-layer block" in capsys.readouterr().err


@pytest.mark.parametrize(
    "metric, counted",
    [
        ("sim.events", True),
        ("hdfs.train.write_coverage", True),
        ("unattributed.share", False),
        ("hdfs.client.self_s", False),
        ("sim.us_per_event", False),
        ("trace_overhead", False),
    ],
)
def test_is_count(metric: str, counted: bool) -> None:
    assert ledger_counts.is_count(metric) is counted
