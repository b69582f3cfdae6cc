"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_upload_defaults(self):
        args = build_parser().parse_args(["upload"])
        assert args.system == "smarth"
        assert args.scenario == "two-rack"
        assert args.size == "1GB"

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig6"])
        assert args.id == "fig6"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seed == 7
        assert args.runs == 10
        assert args.protocol == "both"
        assert args.scale == 1.0
        assert args.out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--protocol", "nfs"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--runs", "0"])

    @pytest.mark.parametrize(
        "command",
        [["experiment", "fig5"], ["chaos"], ["trace", "fig5"]],
        ids=["experiment", "chaos", "trace"],
    )
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf"])
    def test_scale_rejects_non_positive_and_non_finite(self, command, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--scale", value])


class TestCommands:
    def test_scenarios_lists_all(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "two_rack" in out
        assert "contention" in out
        assert "heterogeneous" in out

    def test_upload_runs(self, capsys):
        rc = main(
            [
                "upload",
                "--system",
                "hdfs",
                "--size",
                "128MB",
                "--throttle",
                "100",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "replicated fully: True" in out
        assert "hdfs" in out

    def test_upload_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "upload.json"
        rc = main(
            [
                "upload",
                "--system",
                "smarth",
                "--size",
                "128MB",
                "--trace",
                str(trace),
            ]
        )
        assert rc == 0
        assert "trace" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"upload", "block", "pipeline", "stream"} <= names

    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace", "fig5"])
        assert args.seed == 0
        assert args.scale == 0.25
        assert args.out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig99"])

    def test_compare_runs(self, capsys):
        rc = main(["compare", "--size", "128MB", "--throttle", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_contention_scenario(self, capsys):
        rc = main(
            [
                "upload",
                "--scenario",
                "contention",
                "--slow-nodes",
                "2",
                "--size",
                "128MB",
            ]
        )
        assert rc == 0
        assert "throttled" in capsys.readouterr().out

    def test_roundtrip_runs(self, capsys):
        rc = main(
            ["roundtrip", "--system", "smarth", "--size", "128MB"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out
        assert "replicated fully: True" in out

    def test_experiment_table1(self, capsys):
        rc = main(["experiment", "table1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "216" in out and "376" in out

    def test_experiment_scaled_fig13(self, capsys):
        rc = main(["experiment", "fig13", "--scale", "0.03125"])
        assert rc == 0
        assert "Heterogeneous" in capsys.readouterr().out

    def test_chaos_prints_report_and_exits_green(self, capsys):
        rc = main(
            [
                "chaos",
                "--seed",
                "7",
                "--runs",
                "2",
                "--protocol",
                "smarth",
                "--scale",
                "0.25",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["all_green"] is True
        assert report["seed"] == 7
        assert len(report["runs_detail"]) == 2
        assert "ALL GREEN" in captured.err

    def test_chaos_writes_report_file(self, capsys, tmp_path):
        out = tmp_path / "chaos.json"
        rc = main(
            [
                "chaos",
                "--seed",
                "9",
                "--runs",
                "1",
                "--protocol",
                "hdfs",
                "--scale",
                "0.25",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""  # report went to the file
        report = json.loads(out.read_text())
        assert report["protocols"] == ["hdfs"]
        assert report["outcomes"] == {"completed": 1}


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tenants == 500
        assert args.hours == 48.0
        assert args.checkpoint_every == "6h"
        assert args.seed == 20140901
        assert args.protocol == "smarth"
        assert not args.chaos
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--protocol", "nfs"])

    def test_serve_runs_and_reports(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        rc = main(
            [
                "serve",
                "--tenants", "40",
                "--hours", "0.2",
                "--checkpoint-every", "5m",
                "--seed", "3",
                "--report", str(report),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "invariants: OK" in out
        assert "journal digest: " in out
        assert out.splitlines()[0].split()[0] == "class"
        payload = json.loads(report.read_text())
        assert payload["counts"]["tenants"] == 40
        assert set(payload["digests"]) == {"journal", "metrics", "slo"}

    def test_serve_checkpoint_resume_digests_match(self, capsys, tmp_path):
        straight_args = [
            "serve",
            "--tenants", "40",
            "--hours", "0.2",
            "--checkpoint-every", "4m",
            "--seed", "11",
            "--chaos",
        ]
        assert main(straight_args) == 0
        straight = capsys.readouterr().out

        ckpt_dir = tmp_path / "ckpts"
        ckpt_dir.mkdir()
        assert main(straight_args + ["--checkpoint-dir", str(ckpt_dir)]) == 0
        capsys.readouterr()
        checkpoints = sorted(ckpt_dir.glob("ckpt_*.pkl"))
        assert checkpoints

        rc = main(["serve", "--resume", str(checkpoints[0])])
        assert rc == 0
        captured = capsys.readouterr()
        assert "resumed from" in captured.err
        assert captured.out == straight
