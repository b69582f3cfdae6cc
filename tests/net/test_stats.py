"""Unit tests for per-flow transfer accounting."""

import pytest

from repro.net import FlowSample, FlowStats


def sample(src="a", dst="b", size=1000, start=0.0, end=1.0):
    return FlowSample(src=src, dst=dst, size=size, start=start, end=end)


class TestFlowSample:
    def test_duration_and_rate(self):
        s = sample(size=2000, start=1.0, end=3.0)
        assert s.duration == 2.0
        assert s.rate == 1000.0

    def test_zero_duration_rate(self):
        s = sample(start=1.0, end=1.0)
        assert s.rate == 0.0


class TestFlowStats:
    @pytest.mark.parametrize("keep", [False, True])
    def test_add_equals_record(self, keep):
        """``add`` makes ``record``'s additions and builds a sample only
        when samples are kept."""
        added, recorded = FlowStats(keep_samples=keep), FlowStats(keep_samples=keep)
        flows = [("a", "b", 100, 0.1, 0.35), ("a", "b", 300, 0.2, 0.9),
                 ("b", "a", 7, 1.0, 1.0)]
        for src, dst, size, start, end in flows:
            kept = added.add(src, dst, size, start, end)
            recorded.record(FlowSample(src, dst, size, start, end))
            assert (kept is not None) == keep
        assert added._agg == recorded._agg
        assert len(added) == len(recorded) == 3
        assert added.samples == recorded.samples

    def test_total_bytes_filters(self):
        stats = FlowStats()
        stats.record(sample(src="a", dst="b", size=100))
        stats.record(sample(src="a", dst="c", size=200))
        stats.record(sample(src="b", dst="c", size=400))
        assert stats.total_bytes() == 700
        assert stats.total_bytes(src="a") == 300
        assert stats.total_bytes(dst="c") == 600
        assert stats.total_bytes(src="a", dst="c") == 200

    def test_mean_rate_weights_by_bytes(self):
        stats = FlowStats()
        stats.record(sample(size=1000, start=0, end=1))  # 1000 B/s
        stats.record(sample(size=3000, start=0, end=1))  # 3000 B/s
        # 4000 bytes over 2 seconds of transfer time.
        assert stats.mean_rate("a", "b") == pytest.approx(2000.0)

    def test_mean_rate_unknown_pair(self):
        assert FlowStats().mean_rate("x", "y") == 0.0

    def test_pairs_sorted(self):
        stats = FlowStats()
        stats.record(sample(src="b", dst="a"))
        stats.record(sample(src="a", dst="b"))
        assert stats.pairs() == (("a", "b"), ("b", "a"))

    def test_len(self):
        stats = FlowStats()
        stats.record(sample())
        stats.record(sample())
        assert len(stats) == 2
