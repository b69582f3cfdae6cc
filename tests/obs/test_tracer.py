"""Unit tests for the repro.obs core: tracer, metrics, exporters,
wellformedness checker."""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import Journal
from repro.obs import (
    MetricsRegistry,
    Tracer,
    WellformednessError,
    check_wellformed,
    chrome_trace_json,
    metrics_summary,
    render_gantt,
)


class TestTracer:
    def test_begin_end_records_interval(self) -> None:
        tracer = Tracer(enabled=True)
        sid = tracer.begin("upload", "client:c", "u", 1.0, size=42)
        tracer.end(sid, 3.5, ok=True)
        (span,) = tracer.spans()
        assert (span.name, span.start, span.end) == ("upload", 1.0, 3.5)
        assert span.args == {"size": 42, "ok": True}
        assert span.duration == 2.5

    def test_disabled_is_a_noop(self) -> None:
        tracer = Tracer(enabled=False)
        sid = tracer.begin("x", "a", "t", 0.0)
        assert sid == 0
        tracer.end(sid, 1.0)
        assert len(tracer) == 0

    def test_end_is_idempotent_and_tolerates_junk_ids(self) -> None:
        tracer = Tracer(enabled=True)
        sid = tracer.begin("s", "a", "t", 0.0)
        tracer.end(sid, 1.0)
        tracer.end(sid, 99.0, aborted=True)  # no-op: already closed
        tracer.end(12345, 1.0)  # no-op: unknown
        tracer.end(0, 1.0)  # no-op: disabled handle
        (span,) = tracer.spans()
        assert span.end == 1.0
        assert "aborted" not in span.args

    def test_span_ids_are_sequential_and_parent_linked(self) -> None:
        tracer = Tracer(enabled=True)
        a = tracer.begin("a", "x", "t", 0.0)
        b = tracer.begin("b", "x", "t", 0.5, parent=a)
        assert (a, b) == (1, 2)
        assert tracer.spans()[1].parent == a
        assert [s.id for s in tracer.open_spans()] == [1, 2]

    def test_journal_mirroring(self) -> None:
        """An attached journal's events, emitted before or after the
        attach, export as instants on the ``journal`` actor."""
        tracer = Tracer(enabled=True)
        journal = Journal()
        journal.emit(1.0, "create_file", "/f")
        tracer.attach_journal(journal)
        journal.emit(2.0, "add_block", "block:7", targets=("dn0",))
        assert tracer.journals() == (("journal", journal),)
        doc = json.loads(chrome_trace_json(tracer))
        names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        (process,) = [e for e in doc["traceEvents"] if e["name"] == "process_name"]
        assert process["args"]["name"] == "journal"
        instants = [
            (e["name"], names[(e["pid"], e["tid"])], e["ts"], e["args"])
            for e in doc["traceEvents"]
            if e["ph"] == "i"
        ]
        # Canonical order: by track (the event kind), then time.
        assert instants == [
            ("add_block", "add_block", 2e6, {"targets": ["dn0"]}),
            ("create_file", "create_file", 1e6, {}),
        ]


class TestMetrics:
    def test_counter_gauge_histogram(self) -> None:
        m = MetricsRegistry(enabled=True)
        m.count("blocks_total")
        m.count("blocks_total", 2)
        m.gauge("live", 1)
        m.gauge("live", 1)
        m.gauge("live", -1)
        m.observe("lat", 0.5)
        m.observe("lat", 1.5)
        assert m.counter_value("blocks_total") == 3
        (g,) = m.gauges()
        assert (g.value, g.max_value) == (1, 2)
        h = m.histogram("lat")
        assert (h.count, h.mean, h.minimum, h.maximum) == (2, 1.0, 0.5, 1.5)

    def test_disabled_records_nothing(self) -> None:
        metrics = MetricsRegistry(enabled=False)
        metrics.count("x")
        metrics.gauge("y", 1)
        metrics.observe("z", 1.0)
        assert not metrics.counters()
        assert not metrics.gauges()
        assert not metrics.histograms()

    def test_summary_renders_all_kinds(self) -> None:
        m = MetricsRegistry(enabled=True)
        m.count("c")
        m.gauge("g", 2)
        m.observe("h", 0.25)
        text = metrics_summary(m)
        assert "counters" in text and "gauges" in text and "histograms" in text
        assert metrics_summary(MetricsRegistry(enabled=True)).startswith(
            "(no metrics recorded)"
        )


def _sample_tracer() -> Tracer:
    tracer = Tracer(enabled=True)
    up = tracer.begin("upload", "client:c", "u", 0.0, size=10)
    blk = tracer.begin("block", "client:c", "b1", 0.5, parent=up)
    journal = Journal()
    tracer.attach_journal(journal)
    journal.emit(0.75, "mark", "block:1", note="x")
    tracer.end(blk, 2.0)
    tracer.end(up, 2.5)
    return tracer


class TestChromeExport:
    def test_loadable_and_structurally_sound(self) -> None:
        doc = json.loads(chrome_trace_json(_sample_tracer(), label="t"))
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        # 2 process names (client:c, journal) + 3 thread names (u, b1, mark)
        assert phases.count("M") == 5
        assert phases.count("X") == 2
        assert phases.count("i") == 1
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"upload", "block"}
        assert all(e["dur"] >= 0 for e in xs)
        assert doc["otherData"]["label"] == "t"

    def test_byte_identical_regardless_of_close_order(self) -> None:
        """The packet train closes spans out of order; exports must not
        care."""
        a = Tracer(enabled=True)
        x = a.begin("x", "p", "t", 0.0)
        y = a.begin("y", "p", "t", 1.0)
        a.end(x, 4.0)
        a.end(y, 2.0)

        b = Tracer(enabled=True)
        x2 = b.begin("x", "p", "t", 0.0)
        y2 = b.begin("y", "p", "t", 1.0)
        b.end(y2, 2.0)
        b.end(x2, 4.0)
        assert chrome_trace_json(a) == chrome_trace_json(b)

    def test_unclosed_spans_are_flagged(self) -> None:
        tracer = Tracer(enabled=True)
        tracer.begin("dangling", "p", "t", 1.0)
        doc = json.loads(chrome_trace_json(tracer))
        (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["unclosed"] is True
        assert x["dur"] == 0

    def test_args_canonicalized(self) -> None:
        tracer = Tracer(enabled=True)
        sid = tracer.begin(
            "s", "p", "t", 0.0, targets=("dn1", "dn0"), obj={"k": 1}
        )
        tracer.end(sid, 1.0)
        doc = json.loads(chrome_trace_json(tracer))
        (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["targets"] == ["dn1", "dn0"]
        assert isinstance(x["args"]["obj"], str)


class TestGantt:
    def test_renders_rows_and_labels(self) -> None:
        text = render_gantt(_sample_tracer(), width=40)
        assert "client:c/u" in text and "client:c/b1" in text
        assert "upload@0.000+2.500s" in text
        assert "[" in text and "]" in text

    def test_empty_tracer(self) -> None:
        assert render_gantt(Tracer(enabled=True)) == "(no closed spans)\n"


class TestWellformed:
    def test_accepts_proper_nesting(self) -> None:
        check_wellformed(_sample_tracer())

    def test_rejects_open_span_unless_allowed(self) -> None:
        tracer = Tracer(enabled=True)
        tracer.begin("s", "p", "t", 0.0)
        with pytest.raises(WellformednessError, match="left open"):
            check_wellformed(tracer)
        check_wellformed(tracer, allow_open=True)

    def test_aborted_open_span_is_tolerated(self) -> None:
        tracer = Tracer(enabled=True)
        tracer.begin("s", "p", "t", 0.0, aborted=True)
        check_wellformed(tracer)

    def test_rejects_end_before_start(self) -> None:
        tracer = Tracer(enabled=True)
        sid = tracer.begin("s", "p", "t", 5.0)
        tracer.end(sid, 1.0)
        with pytest.raises(WellformednessError, match="end < start"):
            check_wellformed(tracer)

    def test_rejects_overlap_without_nesting(self) -> None:
        tracer = Tracer(enabled=True)
        a = tracer.begin("a", "p", "t", 0.0)
        b = tracer.begin("b", "p", "t", 1.0)
        tracer.end(a, 2.0)
        tracer.end(b, 3.0)  # crosses a's end on the same lane
        with pytest.raises(WellformednessError, match="overlap"):
            check_wellformed(tracer)

    def test_separate_tracks_may_overlap(self) -> None:
        tracer = Tracer(enabled=True)
        a = tracer.begin("a", "p", "t1", 0.0)
        b = tracer.begin("b", "p", "t2", 1.0)
        tracer.end(a, 2.0)
        tracer.end(b, 3.0)
        check_wellformed(tracer)

    def test_rejects_child_outliving_parent(self) -> None:
        tracer = Tracer(enabled=True)
        a = tracer.begin("a", "p", "t1", 0.0)
        b = tracer.begin("b", "q", "t2", 1.0, parent=a)
        tracer.end(a, 2.0)
        tracer.end(b, 3.0)
        with pytest.raises(WellformednessError, match="outlives"):
            check_wellformed(tracer)

    def test_rejects_dangling_parent(self) -> None:
        tracer = Tracer(enabled=True)
        sid = tracer.begin("a", "p", "t", 0.0, parent=77)
        tracer.end(sid, 1.0)
        with pytest.raises(WellformednessError, match="dangling"):
            check_wellformed(tracer)
