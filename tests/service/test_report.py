"""The service report: its journal digest is the digest of the journal
text byte for byte, and taking it holds no rendering of the journal.

``golden_service_digests.json`` pins what the digests are; these tests
pin how the report takes them.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import pytest

from repro.analysis.trace import Journal
from repro.service import IngestService, ServiceReport
from repro.service import report as report_module

from .specs import golden_spec

#: The golden runs, and the plain one with ten times the tenants (about
#: 2k journal events).
SPECS = {
    "plain": golden_spec(),
    "chaos": golden_spec(chaos=True),
    "busy": golden_spec(tenants=120),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(SPECS))
def finished(request):
    service = IngestService(SPECS[request.param])
    report = service.run()
    return service, report


def test_journal_digest_is_the_digest_of_the_text(finished):
    _, report = finished
    digests = report.digests()
    assert digests["journal"] == _sha256(report.journal_text)
    assert digests["metrics"] == _sha256(report.metrics_text)
    assert digests["slo"] == _sha256(report.slo_text)
    assert json.loads(report.to_json())["digests"] == digests


def test_journal_text_is_one_sorted_json_line_per_event(finished):
    service, report = finished
    lines = [
        json.dumps(
            {
                "time": e.time,
                "kind": e.kind,
                "subject": e.subject,
                "details": e.details,
            },
            sort_keys=True,
        )
        for e in service.journal
    ]
    assert report.journal_text == "\n".join(lines) + "\n"


def test_empty_journal_renders_a_newline():
    report = IngestService(golden_spec()).report()
    assert report.counts["journal_events"] == 0
    assert report.journal_text == "\n"
    assert report.digests()["journal"] == _sha256("\n")


def test_python_encoder_renders_the_same_lines(finished, monkeypatch):
    """Where ``json`` has no C encoder the report falls back to
    ``JSONEncoder(sort_keys=True).encode``, line for line the same."""
    service, report = finished
    text = report.journal_text
    monkeypatch.setattr(report_module, "c_make_encoder", None)
    assert report.journal_text == text
    assert report_module.journal_digest(service.journal) == _sha256(text)


def test_report_keeps_the_events_it_was_made_from():
    """The journal is append-only: a later event moves neither the text
    nor the digest of a report already made."""
    journal = Journal()
    journal.emit(1.5, "block_allocated", "f", block=7)
    report = ServiceReport({}, {}, journal, "", "")
    text = report.journal_text
    journal.emit(2.0, "block_allocated", "f", block=8)
    assert report.journal_text == text
    assert report.digests()["journal"] == _sha256(text)


@pytest.fixture(scope="module")
def busy():
    service = IngestService(SPECS["busy"])
    service.run()
    assert 1500 <= len(service.journal) <= 3000
    return service


def test_report_memory_is_constant_in_the_journal(busy):
    """Making the report and reading its digests holds no rendering of
    the journal: not the text, not its lines, not its bytes (each alone
    is at least the text's length)."""
    service = busy
    tracemalloc.start()
    try:
        report = service.report()
        report.digests()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * len(report.journal_text)


#: Bytes a journal may keep per event beyond the event's values.
BYTES_PER_EVENT = 200


def test_journal_keeps_few_bytes_per_event(busy):
    """A run keeps every journal event, so an event is a slotted record
    whose details are a shared name tuple and a value tuple.  Emitting
    the busy run's events again into a new journal allocates under
    :data:`BYTES_PER_EVENT` an event (their values exist already, so
    this is the record, its tuples and its list slot): about 143 bytes
    on CPython 3.11, where a dataclass with a ``__dict__`` and a details
    dict took about 296."""
    events = [(e.time, e.kind, e.subject, e.details) for e in busy.journal]
    journal = Journal()
    tracemalloc.start()
    try:
        for time, kind, subject, details in events:
            journal.emit(time, kind, subject, **details)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(journal) == list(busy.journal)
    assert kept < BYTES_PER_EVENT * len(events)
