"""Golden traces: the pinned output of ``python -m repro trace fig5 --seed 0``
and ``python -m repro trace faultrec --seed 0``.

Byte-level pinning of the merged (hdfs + smarth) Chrome trace and the
metrics summary for the fig5-style throttled upload at the default
``--scale 0.25``, and of the merged trace of the fault-recovery schedule
(a mid-pipeline kill, its recovery and a later throttle), whose journal
instants include ``datanode_killed`` and ``pipeline_recovered``.  Any
change to span timing, naming, ordering or the exporter's
canonicalization shows up as a diff here; regenerate with

    PYTHONPATH=src python tests/obs/regen_goldens.py

after verifying the new timeline is intentional.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import check_wellformed, chrome_trace_json
from repro.obs.trace_cmd import run_traced

HERE = Path(__file__).parent
GOLDEN_TRACE = HERE / "golden_fig5_trace.json"
GOLDEN_METRICS = HERE / "golden_fig5_metrics.txt"
GOLDEN_FAULTREC_TRACE = HERE / "golden_faultrec_trace.json"

SEED = 0
SCALE = 0.25


@pytest.fixture(scope="module")
def fig5_run():
    return run_traced("fig5", seed=SEED, scale=SCALE)


@pytest.fixture(scope="module")
def faultrec_run():
    return run_traced("faultrec", seed=SEED, scale=SCALE)


class TestGoldenFig5:
    def test_trace_is_wellformed(self, fig5_run) -> None:
        check_wellformed(fig5_run.tracer, allow_open=fig5_run.allow_open)

    def test_trace_matches_golden(self, fig5_run) -> None:
        rendered = chrome_trace_json(fig5_run.tracer, label="fig5")
        assert rendered == GOLDEN_TRACE.read_text(), (
            "fig5 trace drifted from the golden; regenerate with "
            "tests/obs/regen_goldens.py if the change is intentional"
        )

    def test_metrics_match_golden(self, fig5_run) -> None:
        assert fig5_run.summary == GOLDEN_METRICS.read_text()

    def test_repeated_runs_byte_identical(self, fig5_run) -> None:
        again = run_traced("fig5", seed=SEED, scale=SCALE)
        assert chrome_trace_json(again.tracer, label="fig5") == chrome_trace_json(
            fig5_run.tracer, label="fig5"
        )
        assert again.summary == fig5_run.summary

    def test_cli_writes_the_golden_bytes(self, tmp_path, capsys) -> None:
        """``python -m repro trace fig5 --seed 0`` is the command the
        README documents; its file output must be the golden."""
        out = tmp_path / "trace.json"
        rc = main(["trace", "fig5", "--seed", str(SEED), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == GOLDEN_TRACE.read_text()
        assert capsys.readouterr().out == GOLDEN_METRICS.read_text()

    def test_trace_has_both_systems_and_key_span_names(self, fig5_run) -> None:
        spans = fig5_run.tracer.spans()
        actors = {s.actor for s in spans}
        assert any(a.startswith("hdfs/client") for a in actors)
        assert any(a.startswith("smarth/client") for a in actors)
        names = {s.name for s in spans}
        assert {
            "upload", "block", "pipeline", "stream", "ack",
            "store", "forward", "ack_relay", "allocate", "rank",
        } <= names
        assert "fnfa_wait" in names  # SMARTH-only span
        journals = fig5_run.tracer.journals()
        assert [actor for actor, _ in journals] == [
            "hdfs/journal", "smarth/journal",
        ]
        journal_kinds = {
            event.kind for _, journal in journals for event in journal
        }
        assert "add_block" in journal_kinds  # journals attached


class TestFaultrecTrace:
    """The kill+throttle schedule traces cleanly, deterministically and
    byte for byte as pinned."""

    def test_faultrec_wellformed_and_deterministic(self, faultrec_run) -> None:
        check_wellformed(faultrec_run.tracer, allow_open=True)
        names = {s.name for s in faultrec_run.tracer.spans()}
        assert "recovery" in names
        again = run_traced("faultrec", seed=SEED, scale=SCALE)
        assert chrome_trace_json(faultrec_run.tracer) == chrome_trace_json(
            again.tracer
        )

    def test_trace_matches_golden(self, faultrec_run) -> None:
        rendered = chrome_trace_json(faultrec_run.tracer, label="faultrec")
        assert rendered == GOLDEN_FAULTREC_TRACE.read_text(), (
            "faultrec trace drifted from the golden; regenerate with "
            "tests/obs/regen_goldens.py if the change is intentional"
        )
