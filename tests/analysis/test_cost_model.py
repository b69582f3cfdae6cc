"""Unit and property tests for the §III-D cost model (Formulas 1-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CostParameters,
    hdfs_time,
    improvement_percent,
    production_bound_time,
    smarth_time,
    smarth_time_refined,
)
from repro.analysis.cost_model import harmonic_mean
from repro.units import GB, KB, MB, mbps


def params(size=GB, block=64 * MB, packet=64 * KB, t_n=1e-3, t_c=0.0, t_w=0.0):
    return CostParameters(
        file_size=size, block_size=block, packet_size=packet, t_n=t_n, t_c=t_c, t_w=t_w
    )


class TestFormulas:
    def test_counts(self):
        p = params(size=GB)
        assert p.n_blocks == 16
        assert p.n_packets == GB // (64 * KB)

    def test_counts_round_up(self):
        p = params(size=GB + 1)
        assert p.n_blocks == 17

    def test_formula1_production_bound(self):
        p = params(t_c=1e-3, t_w=1e-4)
        expected = 1e-3 * p.n_blocks + (1e-3 + 1e-4) * p.n_packets
        assert production_bound_time(p) == pytest.approx(expected)

    def test_formula2_transmission_bound(self):
        p = params()
        b_min = mbps(50)
        expected = 1e-3 * p.n_blocks + (p.packet_size / b_min) * p.n_packets
        assert hdfs_time(p, b_min) == pytest.approx(expected)

    def test_formula2_switches_to_formula1_when_production_slow(self):
        # T_c far above P/B: production dominates.
        p = params(t_c=10.0)
        assert hdfs_time(p, mbps(1000)) == production_bound_time(p)

    def test_formula3_uses_first_hop_bandwidth(self):
        p = params()
        assert smarth_time(p, mbps(216)) < hdfs_time(p, mbps(50))

    def test_smarth_never_slower_than_hdfs(self):
        p = params()
        for throttle in (10, 50, 100, 200):
            b_min = mbps(throttle)
            b_max = mbps(216)
            assert smarth_time(p, max(b_min, b_max)) <= hdfs_time(p, b_min)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CostParameters(file_size=0, block_size=1, packet_size=1)
        with pytest.raises(ValueError):
            CostParameters(file_size=1, block_size=1, packet_size=1, t_n=-1)
        with pytest.raises(ValueError):
            hdfs_time(params(), 0)


class TestRefinedModel:
    def test_harmonic_mean(self):
        assert harmonic_mean([100, 100]) == pytest.approx(100)
        assert harmonic_mean([50, 100]) == pytest.approx(2 / (1 / 50 + 1 / 100))

    def test_harmonic_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            harmonic_mean([])

    def test_drain_cap_binds_at_low_throttle(self):
        p = params(size=8 * GB)
        nic = mbps(216)
        tight = smarth_time_refined(
            p, [nic] * 9, drain_rate=mbps(10), n_pipelines=3
        )
        loose = smarth_time_refined(
            p, [nic] * 9, drain_rate=mbps(500), n_pipelines=3
        )
        assert tight > loose

    def test_rotation_mix_slows_streaming(self):
        p = params(size=8 * GB)
        nic = mbps(216)
        all_fast = smarth_time_refined(
            p, [nic] * 9, drain_rate=nic, n_pipelines=3
        )
        mixed = smarth_time_refined(
            p, [nic] * 5 + [mbps(50)] * 4, drain_rate=nic, n_pipelines=3
        )
        assert mixed > all_fast

    def test_invalid_pipelines(self):
        with pytest.raises(ValueError):
            smarth_time_refined(params(), [1.0], drain_rate=1.0, n_pipelines=0)


class TestImprovement:
    def test_improvement_percent(self):
        assert improvement_percent(200, 100) == pytest.approx(100.0)
        assert improvement_percent(100, 100) == pytest.approx(0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            improvement_percent(1, 0)


@given(
    size=st.integers(min_value=1, max_value=16 * GB),
    b_min_mbps=st.floats(min_value=1, max_value=200),
    b_max_extra=st.floats(min_value=0, max_value=800),
)
@settings(max_examples=200, deadline=None)
def test_formula3_never_exceeds_formula2(size, b_min_mbps, b_max_extra):
    """For B_max >= B_min, SMARTH's predicted time <= HDFS's — the paper's
    §III-D conclusion, as a property."""
    p = params(size=size)
    b_min = mbps(b_min_mbps)
    b_max = mbps(b_min_mbps + b_max_extra)
    assert smarth_time(p, b_max) <= hdfs_time(p, b_min) + 1e-9


@given(size=st.integers(min_value=1, max_value=16 * GB))
@settings(max_examples=100, deadline=None)
def test_time_monotone_in_size(size):
    p_small = params(size=size)
    p_big = params(size=size + 64 * MB)
    assert hdfs_time(p_big, mbps(100)) > hdfs_time(p_small, mbps(100))
