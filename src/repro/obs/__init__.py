"""repro.obs — simulator-time tracing and metrics.

A cross-cutting observability layer: :class:`Tracer` records nested spans
over simulated time (upload → block → pipeline → stream/store/forward/
ack/recovery, plus namenode allocate/rank/heartbeat) and refers to the
deployment's protocol journal, :class:`MetricsRegistry` aggregates
counters/gauges/histograms alongside, and the exporters render Chrome
``trace_event`` JSON (Perfetto-loadable, with the journal's events as
instants), a text Gantt, and a metrics summary table.  Enable per
deployment with ``HdfsDeployment(cluster, observe=True)`` or from the
CLI via ``python -m repro trace <experiment>``.
"""

from .export import chrome_trace_json, metrics_summary, render_gantt
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    labelled,
    publish_env_health,
    window_bucket,
)
from .spans import Span, Tracer
from .wellformed import WellformednessError, check_wellformed

__all__ = [
    "Tracer",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "publish_env_health",
    "labelled",
    "window_bucket",
    "chrome_trace_json",
    "render_gantt",
    "metrics_summary",
    "check_wellformed",
    "WellformednessError",
]
