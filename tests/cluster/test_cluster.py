"""Unit tests for instance catalog, disk, and node models."""

import pytest

from repro.cluster import (
    INSTANCE_CATALOG,
    LARGE,
    MEDIUM,
    SMALL,
    Disk,
    InstanceType,
    Node,
    instance_by_name,
)
from repro.sim import Environment
from repro.units import GB, MB, mbps, to_mbps


@pytest.fixture()
def env():
    return Environment()


class TestInstanceCatalog:
    """Table I values must match the paper exactly."""

    def test_small(self):
        assert SMALL.memory == int(1.7 * GB)
        assert SMALL.ecus == 1
        assert to_mbps(SMALL.network_rate) == pytest.approx(216)

    def test_medium(self):
        assert MEDIUM.memory == int(3.75 * GB)
        assert MEDIUM.ecus == 2
        assert to_mbps(MEDIUM.network_rate) == pytest.approx(376)

    def test_large(self):
        assert LARGE.memory == int(7.5 * GB)
        assert LARGE.ecus == 4
        assert to_mbps(LARGE.network_rate) == pytest.approx(376)

    def test_medium_and_large_same_network(self):
        # §V-B.1: "the medium cluster and large cluster have the same
        # networking capacity"
        assert MEDIUM.network_rate == LARGE.network_rate

    def test_lookup(self):
        assert instance_by_name("SMALL") is SMALL
        with pytest.raises(KeyError):
            instance_by_name("xlarge")
        assert set(INSTANCE_CATALOG) == {"small", "medium", "large"}

    def test_production_faster_than_network(self):
        # §III-D's observed regime: T_c < P / B for every instance type.
        for itype in INSTANCE_CATALOG.values():
            assert itype.production_rate > itype.network_rate

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType("bad", 0, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            InstanceType("bad", 1, 1, 0, 1, 1)


class TestDisk:
    def test_write_duration(self, env):
        disk = Disk(env, rate=100 * MB)
        env.run(until=env.process(disk.write(200 * MB)))
        assert env.now == pytest.approx(2.0)
        assert disk.bytes_written == 200 * MB

    def test_writes_serialize(self, env):
        disk = Disk(env, rate=100 * MB)
        w1 = env.process(disk.write(100 * MB))
        w2 = env.process(disk.write(100 * MB))
        env.run(until=env.all_of([w1, w2]))
        assert env.now == pytest.approx(2.0)

    def test_invalid_rate_and_size(self, env):
        with pytest.raises(ValueError):
            Disk(env, rate=0)
        disk = Disk(env, rate=1)
        with pytest.raises(ValueError):
            env.run(until=env.process(disk.write(-1)))


class TestNode:
    def test_attributes(self, env):
        node = Node(env, "n1", SMALL, rack="rackA")
        assert node.nic.rate == SMALL.network_rate
        assert node.disk.rate == SMALL.disk_rate
        assert node.alive

    def test_empty_name_rejected(self, env):
        with pytest.raises(ValueError):
            Node(env, "", SMALL, rack="r")

    def test_fail_and_recover(self, env):
        node = Node(env, "n1", SMALL, rack="r")
        node.fail()
        assert not node.alive
        node.recover()
        assert node.alive
