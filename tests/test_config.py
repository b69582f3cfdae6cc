"""Unit tests for configuration dataclasses."""

import pytest

from repro.config import HdfsConfig, NetworkConfig, SimulationConfig, SmarthConfig
from repro.units import KB, MB


class TestHdfsConfig:
    def test_defaults_match_hadoop_1x(self):
        cfg = HdfsConfig()
        assert cfg.block_size == 64 * MB
        assert cfg.packet_size == 64 * KB
        assert cfg.replication == 3
        assert cfg.heartbeat_interval == 3.0

    def test_packets_per_block(self):
        cfg = HdfsConfig(block_size=64 * MB, packet_size=64 * KB)
        assert cfg.packets_per_block == 1024

    def test_packets_per_block_rounds_up(self):
        cfg = HdfsConfig(block_size=100, packet_size=64)
        assert cfg.packets_per_block == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_size": 0},
            {"packet_size": 0},
            {"packet_size": 128 * MB},
            {"replication": 0},
            {"namenode_rpc_latency": -1},
            {"heartbeat_interval": 0},
            {"coalesce_packets": 2},
            {"coalesce_reads": 4},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            HdfsConfig(**kwargs)


class TestSmarthConfig:
    def test_defaults_match_paper(self):
        cfg = SmarthConfig()
        assert cfg.local_opt_threshold == 0.8
        assert cfg.enable_global_opt and cfg.enable_local_opt
        assert cfg.max_pipelines is None

    def test_pipeline_cap_rule(self):
        cfg = SmarthConfig()
        assert cfg.pipeline_cap(9, 3) == 3  # the paper's num/repli
        assert cfg.pipeline_cap(10, 3) == 3
        assert cfg.pipeline_cap(2, 3) == 1  # floor at one pipeline

    def test_pipeline_cap_override(self):
        cfg = SmarthConfig(max_pipelines=5)
        assert cfg.pipeline_cap(9, 3) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"local_opt_threshold": -0.1},
            {"local_opt_threshold": 1.1},
            {"max_pipelines": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SmarthConfig(**kwargs)


class TestNetworkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(link_latency=-1)
        with pytest.raises(ValueError):
            NetworkConfig(connection_setup=-1)


class TestSimulationConfig:
    def test_with_overrides_are_copies(self):
        base = SimulationConfig()
        tweaked = base.with_hdfs(replication=2).with_smarth(max_pipelines=4)
        assert base.hdfs.replication == 3
        assert tweaked.hdfs.replication == 2
        assert tweaked.smarth.max_pipelines == 4
        assert base.smarth.max_pipelines is None

    def test_with_network(self):
        cfg = SimulationConfig().with_network(link_latency=0.5)
        assert cfg.network.link_latency == 0.5

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(AttributeError):
            cfg.seed = 1
