"""The service report and the journal digest it carries.

A finished (or resumed) run is judged by three digests: the sha256 of
the journal text, of the metrics summary and of the SLO table.  The
journal text is one ``sort_keys`` JSON line per journal event, each
``\\n``-terminated; an empty journal renders ``"\\n"``.  It is by far the
largest of the three (about 150 bytes an event), so its digest is taken
while the lines are rendered, a batch of lines at a time: no list of the
lines, no joined text and no bytes copy is ever held, and the report
adds constant memory beyond the journal itself.  The text is rendered
again, whole, only when :attr:`ServiceReport.journal_text` is read.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Iterable, Iterator

from ..analysis.trace import Journal, TraceEvent

__all__ = ["ServiceReport", "journal_lines", "journal_digest"]

#: Journal lines hashed per ``sha256.update`` call.
HASH_BATCH = 64


def _sorted_encoder() -> Callable[[object], str]:
    """``json.dumps(obj, sort_keys=True)`` as one encoder for a whole pass.

    ``JSONEncoder.encode`` builds a new C encoder on every call; this
    builds one with the settings ``JSONEncoder(sort_keys=True)`` gives
    it, circular check included.  Without the C accelerator it falls
    back to ``JSONEncoder(sort_keys=True).encode``.
    """
    settings = json.JSONEncoder(sort_keys=True)
    if c_make_encoder is None:
        return settings.encode
    encode = c_make_encoder(
        {},
        settings.default,
        encode_basestring_ascii,
        settings.indent,
        settings.key_separator,
        settings.item_separator,
        settings.sort_keys,
        settings.skipkeys,
        settings.allow_nan,
    )
    # The C encoder returns its output in chunks (one on CPython >= 3.11).
    return lambda obj: "".join(encode(obj, 0))


def journal_lines(events: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event's journal line, without its newline."""
    encode = _sorted_encoder()
    for event in events:
        yield encode(
            {
                "time": event.time,
                "kind": event.kind,
                "subject": event.subject,
                "details": event.details,
            }
        )


def journal_digest(events: Iterable[TraceEvent]) -> str:
    """sha256 of the journal text, hashed as its lines are rendered."""
    digest = hashlib.sha256()
    lines = journal_lines(events)
    batch = list(islice(lines, HASH_BATCH))
    if not batch:
        digest.update(b"\n")
    while batch:
        digest.update(("\n".join(batch) + "\n").encode())
        batch = list(islice(lines, HASH_BATCH))
    return digest.hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class ServiceReport:
    """Deterministic rendering of one finished (or resumed) run.

    The three digests are taken once, when the report is made.  The
    report keeps the journal, not its text: :attr:`journal_text` renders
    the events the journal held then (it is append-only) on each read.
    """

    def __init__(
        self,
        counts: dict,
        classes: dict,
        journal: Journal,
        metrics_text: str,
        slo_text: str,
    ):
        self.counts = counts
        self.classes = classes
        self.metrics_text = metrics_text
        self.slo_text = slo_text
        self._journal = journal
        self._journal_events = len(journal)
        self._digests = {
            "journal": journal_digest(journal),
            "metrics": _sha256(metrics_text),
            "slo": _sha256(slo_text),
        }

    @property
    def journal_text(self) -> str:
        """The whole journal text, rendered on demand."""
        lines = journal_lines(islice(self._journal, self._journal_events))
        return "\n".join(lines) + "\n"

    def digests(self) -> dict:
        """sha256 of each rendered artifact — the equivalence currency."""
        return dict(self._digests)

    def to_json(self) -> str:
        return json.dumps(
            {
                "counts": self.counts,
                "classes": self.classes,
                "digests": self._digests,
            },
            sort_keys=True,
            indent=2,
        ) + "\n"
