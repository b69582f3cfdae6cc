"""Aggregate metrics recorded alongside the span trace.

Three instrument kinds, mirroring what the paper's evaluation actually
reports: **counters** for monotone event counts (``pipelines_opened``,
``train_invalidation_count``), **gauges** for levels sampled over
simulated time (``pipelines_live`` with its high-water mark), and
**histograms** for latency distributions (``fnfa_latency``,
``recovery_duration``).

Like the tracer, a disabled registry short-circuits after one predicate
check, and everything it stores is deterministic: instruments render in
name-sorted order and histogram statistics are simple arithmetic over
the observation list, so a fixed seed yields a byte-identical summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DISABLED_METRICS",
    "publish_env_health",
    "labelled",
    "window_bucket",
]


def labelled(name: str, **labels: object) -> str:
    """Render a metric name with labels: ``name{k=v,...}``, keys sorted.

    Sorting makes the rendered name deterministic regardless of keyword
    order at the call site, so per-tenant-class instruments land at stable
    positions in the name-sorted summary.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def window_bucket(name: str, when: float, width: float) -> str:
    """Bucket a metric name by time window: ``name[NNNNNN]``.

    ``when`` (simulated seconds) falls into window ``floor(when / width)``;
    the index is zero-padded to six digits so windows sort numerically in
    the name-sorted metrics summary.  The ingest service uses this for
    per-window latency histograms over multi-day horizons.
    """
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    return f"{name}[{int(when // width):06d}]"


@dataclass
class Counter:
    name: str
    value: float = 0.0


@dataclass
class Gauge:
    """A sampled level; tracks the maximum it ever reached."""

    name: str
    value: float = 0.0
    max_value: float = 0.0


@dataclass
class Histogram:
    name: str
    observations: list = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return sum(self.observations)

    @property
    def mean(self) -> float:
        return self.total / len(self.observations) if self.observations else 0.0

    @property
    def minimum(self) -> float:
        return min(self.observations) if self.observations else 0.0

    @property
    def maximum(self) -> float:
        return max(self.observations) if self.observations else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) of the observations.

        Nearest-rank is exact and deterministic (no interpolation), which
        keeps SLO tables byte-stable across platforms.  Returns 0.0 for an
        empty histogram.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.observations:
            return 0.0
        ordered = sorted(self.observations)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[rank - 1]


class MetricsRegistry:
    """Named counters/gauges/histograms with lazy instrument creation."""

    __slots__ = ("_enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = False):
        self._enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- recording ---------------------------------------------------------
    def count(self, name: str, delta: float = 1.0) -> None:
        if not self._enabled:
            return
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += delta

    def gauge(self, name: str, delta: float) -> None:
        """Move gauge ``name`` by ``delta`` (e.g. +1 on open, -1 on close)."""
        if not self._enabled:
            return
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        gauge.value += delta
        if gauge.value > gauge.max_value:
            gauge.max_value = gauge.value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to an absolute level (high-water tracked)."""
        if not self._enabled:
            return
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        gauge.value = value
        if gauge.value > gauge.max_value:
            gauge.max_value = gauge.value

    def observe(self, name: str, value: float) -> None:
        if not self._enabled:
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        histogram.observations.append(value)

    # -- reading -----------------------------------------------------------
    def counters(self) -> tuple[Counter, ...]:
        return tuple(self._counters[k] for k in sorted(self._counters))

    def gauges(self) -> tuple[Gauge, ...]:
        return tuple(self._gauges[k] for k in sorted(self._gauges))

    def histograms(self) -> tuple[Histogram, ...]:
        return tuple(self._histograms[k] for k in sorted(self._histograms))

    def counter_value(self, name: str) -> float:
        counter = self._counters.get(name)
        return counter.value if counter else 0.0

    def histogram(self, name: str) -> Histogram:
        return self._histograms.get(name) or Histogram(name)

    # -- snapshot protocol -------------------------------------------------
    def export_state(self) -> dict:
        """Plain-data instrument contents for checkpointing."""
        return {
            "enabled": self._enabled,
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {
                n: (g.value, g.max_value) for n, g in self._gauges.items()
            },
            "histograms": {
                n: list(h.observations) for n, h in self._histograms.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        self._enabled = bool(state["enabled"])
        self._counters = {
            n: Counter(n, v) for n, v in state["counters"].items()
        }
        self._gauges = {
            n: Gauge(n, v, mx) for n, (v, mx) in state["gauges"].items()
        }
        self._histograms = {
            n: Histogram(n, list(obs))
            for n, obs in state["histograms"].items()
        }

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


#: Shared no-op registry, mirroring ``DISABLED_TRACER``.
DISABLED_METRICS = MetricsRegistry(enabled=False)


#: Scalar counters published verbatim from ``Environment.health()``.
_ENV_HEALTH_KEYS = (
    "events_dispatched",
    "tombstones_skipped",
    "compactions_run",
    "heap_high_water",
)


def publish_env_health(env, metrics: MetricsRegistry) -> None:
    """Publish an environment's event-loop health counters as gauges.

    Gauges land under ``sim.env.*``: ``events_dispatched``,
    ``tombstones_skipped``, ``compactions_run`` and ``heap_high_water``.
    """
    if not metrics.enabled:
        return
    health = env.health()
    for key in _ENV_HEALTH_KEYS:
        metrics.set_gauge(f"sim.env.{key}", health[key])
