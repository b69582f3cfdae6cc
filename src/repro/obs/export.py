"""Exporters: Chrome ``trace_event`` JSON, text Gantt, metrics summary.

All three outputs are canonicalized so a fixed seed produces the same
bytes regardless of recording order (the packet train closes spans
out-of-order relative to the legacy loop):

* pids/tids are assigned from the **sorted** actor / (actor, track)
  name sets, never from encounter order;
* events are sorted by ``(pid, tid, ts, -dur, name)`` — start-time order
  with enclosing spans first, the layout Perfetto expects for nesting;
* timestamps are microseconds rounded to 3 decimals (nanosecond grain,
  far below any simulated duration), serialized by ``json.dumps`` with
  ``sort_keys=True``.
"""

from __future__ import annotations

import json

from .metrics import MetricsRegistry
from .spans import Span, Tracer

__all__ = ["chrome_trace_json", "render_gantt", "metrics_summary"]

_US = 1e6


def _ts(t: float) -> float:
    us = round(t * _US, 3)
    return int(us) if us == int(us) else us


def chrome_trace_json(tracer: Tracer, label: str = "repro") -> str:
    """Render the trace as Chrome ``trace_event`` JSON (Perfetto-loadable).

    Spans become "X" (complete) events, the events of each attached
    journal become "i" events on the journal's actor (one track per
    event kind), and actor/track names are published through "M"
    metadata events.
    """
    spans = tracer.spans()
    instants = [
        (actor, event)
        for actor, journal in tracer.journals()
        for event in journal
    ]

    actors = sorted(
        {s.actor for s in spans} | {actor for actor, _ in instants}
    )
    pid_of = {actor: pid for pid, actor in enumerate(actors, start=1)}
    tracks = sorted(
        {(s.actor, s.track) for s in spans}
        | {(actor, event.kind) for actor, event in instants}
    )
    tid_of = {key: tid for tid, key in enumerate(tracks, start=1)}

    events: list[dict] = []
    for actor in actors:
        events.append(
            {
                "ph": "M",
                "pid": pid_of[actor],
                "tid": 0,
                "name": "process_name",
                "args": {"name": actor},
            }
        )
    for actor, track in tracks:
        events.append(
            {
                "ph": "M",
                "pid": pid_of[actor],
                "tid": tid_of[(actor, track)],
                "name": "thread_name",
                "args": {"name": track},
            }
        )

    timed: list[tuple] = []
    for span in spans:
        end = span.end if span.end is not None else span.start
        pid = pid_of[span.actor]
        tid = tid_of[(span.actor, span.track)]
        ts = _ts(span.start)
        dur = _ts(max(end - span.start, 0.0))
        record = {
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "dur": dur,
            "name": span.name,
            "args": _clean_args(span.args),
        }
        if span.end is None:
            record["args"]["unclosed"] = True
        timed.append((pid, tid, ts, -dur, span.name, record))
    for actor, event in instants:
        pid = pid_of[actor]
        tid = tid_of[(actor, event.kind)]
        ts = _ts(event.time)
        record = {
            "ph": "i",
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "s": "t",
            "name": event.kind,
            "args": _clean_args(event.details),
        }
        timed.append((pid, tid, ts, 0, event.kind, record))
    # A stable sort: instants that tie keep journal order.
    timed.sort(key=lambda item: item[:5])
    events.extend(record for *_, record in timed)

    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms",
         "otherData": {"label": label}},
        sort_keys=True,
        separators=(",", ":"),
    )


def _clean_args(args: dict) -> dict:
    """JSON-stable copy of span args (no sets, stringified oddballs)."""
    clean: dict = {}
    for key in sorted(args):
        value = args[key]
        if isinstance(value, (str, int, float, bool)) or value is None:
            clean[key] = value
        elif isinstance(value, (list, tuple)):
            clean[key] = [str(v) for v in value]
        else:
            clean[key] = str(value)
    return clean


# ---------------------------------------------------------------------------
# Text Gantt


def render_gantt(tracer: Tracer, width: int = 72) -> str:
    """One row per (actor, track): span bars over the simulated timeline.

    Screenshot-free Perfetto: enough to eyeball pipeline overlap in a
    terminal or a doc.  Bars are ``=`` runs bracketed by ``[``/``]``;
    sub-second spans still get one cell so nothing disappears.
    """
    spans = [s for s in tracer.spans() if s.end is not None]
    if not spans:
        return "(no closed spans)\n"
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    horizon = max(t1 - t0, 1e-9)
    scale = (width - 1) / horizon

    rows: dict[tuple[str, str], list[Span]] = {}
    for span in spans:
        rows.setdefault((span.actor, span.track), []).append(span)

    label_width = max(len(f"{a}/{t}") for a, t in rows) + 2
    lines = [
        f"gantt {t0:.3f}s .. {t1:.3f}s "
        f"({horizon:.3f}s across {width} cols)",
        "",
    ]
    for actor, track in sorted(rows):
        cells = [" "] * width
        for span in sorted(rows[(actor, track)],
                           key=lambda s: (s.start, -(s.end - s.start))):
            lo = int((span.start - t0) * scale)
            hi = max(int((span.end - t0) * scale), lo)
            for x in range(lo, hi + 1):
                cells[x] = "="
            cells[lo] = "["
            cells[hi] = "]" if hi > lo else "|"
        label = f"{actor}/{track}"
        lines.append(f"{label:<{label_width}}{''.join(cells).rstrip()}")
        names = ", ".join(
            f"{s.name}@{s.start - t0:.3f}+{s.end - s.start:.3f}s"
            for s in sorted(rows[(actor, track)], key=lambda s: s.start)
        )
        lines.append(f"{'':<{label_width}}{names}")
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Metrics summary


def metrics_summary(metrics: MetricsRegistry) -> str:
    """Fixed-width table of every instrument, name-sorted per kind."""
    lines: list[str] = []
    counters = metrics.counters()
    gauges = metrics.gauges()
    histograms = metrics.histograms()

    if counters:
        lines.append("counters")
        for c in counters:
            lines.append(f"  {c.name:<28} {_num(c.value):>12}")
    if gauges:
        lines.append("gauges")
        for g in gauges:
            lines.append(
                f"  {g.name:<28} {_num(g.value):>12}  max {_num(g.max_value)}"
            )
    if histograms:
        lines.append("histograms")
        lines.append(
            f"  {'name':<28} {'count':>7} {'mean':>12} {'min':>12} {'max':>12}"
        )
        for h in histograms:
            lines.append(
                f"  {h.name:<28} {h.count:>7} {_fmt(h.mean):>12}"
                f" {_fmt(h.minimum):>12} {_fmt(h.maximum):>12}"
            )
    if not lines:
        lines.append("(no metrics recorded)")
    lines.append("")
    return "\n".join(lines)


def _num(value: float) -> str:
    return str(int(value)) if value == int(value) else _fmt(value)


def _fmt(value: float) -> str:
    return f"{value:.6f}"

