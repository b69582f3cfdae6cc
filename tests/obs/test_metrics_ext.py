"""Tests for the service-facing metrics extensions.

Covers labelled metric names, time-window bucketing, nearest-rank
percentiles and the registry snapshot protocol added for the ingest
service's SLO tracking and checkpoint/resume.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import MetricsRegistry, labelled, metrics_summary, window_bucket
from repro.obs.metrics import Histogram


class TestLabelled:
    def test_keys_sorted_regardless_of_call_order(self) -> None:
        a = labelled("m", tenant="t7", cls="fast")
        b = labelled("m", cls="fast", tenant="t7")
        assert a == b == "m{cls=fast,tenant=t7}"

    def test_no_labels_is_identity(self) -> None:
        assert labelled("plain") == "plain"


class TestWindowBucket:
    def test_buckets_floor_and_zero_pad(self) -> None:
        assert window_bucket("m", 0.0, 3600.0) == "m[000000]"
        assert window_bucket("m", 3599.9, 3600.0) == "m[000000]"
        assert window_bucket("m", 3600.0, 3600.0) == "m[000001]"
        assert window_bucket("m", 47 * 3600.0, 3600.0) == "m[000047]"

    def test_windows_sort_numerically_in_summary(self) -> None:
        names = [window_bucket("m", h * 3600.0, 3600.0) for h in range(12)]
        assert names == sorted(names)

    def test_rejects_bad_width(self) -> None:
        with pytest.raises(ValueError):
            window_bucket("m", 1.0, 0.0)


class TestPercentile:
    def test_nearest_rank(self) -> None:
        hist = Histogram("h", [float(v) for v in range(1, 101)])
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(99) == 99.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(0) == 1.0

    def test_small_samples(self) -> None:
        hist = Histogram("h", [3.0, 1.0, 2.0])
        assert hist.percentile(50) == 2.0
        assert hist.percentile(99) == 3.0

    def test_empty_and_bounds(self) -> None:
        assert Histogram("h").percentile(99) == 0.0
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(101)
        with pytest.raises(ValueError):
            Histogram("h", [1.0]).percentile(-1)


class TestSnapshotProtocol:
    def test_export_restore_round_trips_summary(self) -> None:
        """A snapshot exports a registry by pickling it whole and
        restores it by unpickling."""
        source = MetricsRegistry(enabled=True)
        source.count("c", 2.0)
        source.gauge("g", +3.0)
        source.gauge("g", -1.0)
        source.observe("h", 1.5)
        source.observe("h", 0.5)
        target = pickle.loads(pickle.dumps(source))
        assert target.enabled
        assert metrics_summary(target) == metrics_summary(source)
        # The copy keeps accumulating, not just rendering, and apart
        # from its source.
        target.count("c")
        target.observe("h", 2.5)
        assert target.counter_value("c") == 3.0
        assert target.histogram("h").count == 3
        assert source.counter_value("c") == 2.0
        assert source.histogram("h").count == 2


class TestPublishEnvHealth:
    def test_single_heap_env_has_no_window_gauges(self) -> None:
        """The environment publishes exactly its four event-loop gauges
        and nothing else, so golden metrics summaries stay stable."""
        from repro.obs.metrics import publish_env_health
        from repro.sim import Environment

        env = Environment()
        env.run(until=env.timeout(1.0))
        registry = MetricsRegistry(enabled=True)
        publish_env_health(env, registry)
        names = {gauge.name for gauge in registry.gauges()}
        assert names == {
            "sim.env.events_dispatched",
            "sim.env.tombstones_skipped",
            "sim.env.compactions_run",
            "sim.env.heap_high_water",
        }
