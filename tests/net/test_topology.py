"""Unit tests for the rack-aware topology."""

import pytest

from repro.net import (
    DISTANCE_OFF_RACK,
    DISTANCE_SAME_NODE,
    DISTANCE_SAME_RACK,
    Topology,
)


@pytest.fixture()
def topo():
    return Topology.from_rack_map(
        {"rack0": ["a", "b", "c"], "rack1": ["d", "e"]}
    )


class TestConstruction:
    def test_from_rack_map(self, topo):
        assert topo.hosts == ("a", "b", "c", "d", "e")
        assert topo.rack_map == {
            "a": "rack0",
            "b": "rack0",
            "c": "rack0",
            "d": "rack1",
            "e": "rack1",
        }

    def test_duplicate_host_rejected(self, topo):
        with pytest.raises(ValueError):
            topo.add_host("a", "rack1")

    def test_empty_rack_name_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_host("a", "")
        assert "a" not in topo
        topo.add_host("a", "r")
        assert topo.rack_of("a") == "r"

    def test_contains_and_len(self, topo):
        assert "a" in topo
        assert "zz" not in topo
        assert len(topo) == 5


class TestQueries:
    def test_rack_of(self, topo):
        assert topo.rack_of("a") == "rack0"
        assert topo.rack_of("e") == "rack1"

    def test_rack_of_unknown_host(self, topo):
        with pytest.raises(KeyError):
            topo.rack_of("nope")

    def test_distance_same_node(self, topo):
        assert topo.distance("a", "a") == DISTANCE_SAME_NODE

    def test_distance_same_rack(self, topo):
        assert topo.distance("a", "b") == DISTANCE_SAME_RACK

    def test_distance_off_rack(self, topo):
        assert topo.distance("a", "d") == DISTANCE_OFF_RACK

    @pytest.mark.parametrize(
        "a, b", [("nope", "nope"), ("nope", "a"), ("a", "nope")]
    )
    def test_distance_unknown_host(self, topo, a, b):
        with pytest.raises(KeyError):
            topo.distance(a, b)
