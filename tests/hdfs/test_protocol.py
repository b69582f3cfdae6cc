"""Unit tests for protocol data types and their invariants."""

from dataclasses import fields

import pytest

from repro.hdfs.protocol import (
    Ack,
    Block,
    BlockTargets,
    Packet,
    WriteResult,
)
from repro.units import MB


class TestBlock:
    def test_with_generation_preserves_identity(self):
        block = Block(7, "/f", 2, MB)
        bumped = block.with_generation(3)
        assert bumped.block_id == 7
        assert bumped.index == 2
        assert bumped.generation == 3
        assert block.generation == 0  # immutable original

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Block(1, "/f", 0, -1)

    def test_frozen(self):
        block = Block(1, "/f", 0, MB)
        with pytest.raises(AttributeError):
            block.size = 2


class TestPacket:
    def test_validation(self):
        with pytest.raises(ValueError):
            Packet(0, 0)
        with pytest.raises(ValueError):
            Packet(-1, 100)

    def test_is_last_default(self):
        assert not Packet(0, 100).is_last


class TestBlockTargets:
    def test_requires_targets(self):
        block = Block(1, "/f", 0, MB)
        with pytest.raises(ValueError):
            BlockTargets(block, ())

    def test_rejects_duplicates(self):
        block = Block(1, "/f", 0, MB)
        with pytest.raises(ValueError):
            BlockTargets(block, ("dn0", "dn0"))


class TestWriteResult:
    def test_duration_and_throughput(self):
        result = WriteResult(
            path="/f", size=10 * MB, start=1.0, end=6.0, n_blocks=1, system="x"
        )
        assert result.duration == 5.0
        assert result.throughput == pytest.approx(2 * MB)

    def test_zero_duration_throughput(self):
        result = WriteResult(
            path="/f", size=MB, start=1.0, end=1.0, n_blocks=1, system="x"
        )
        assert result.throughput == float("inf")


class TestExceptions:
    def test_ack_defaults(self):
        ack = Ack(1, 0)
        assert (ack.block_id, ack.seq) == (1, 0)
        assert [f.name for f in fields(Ack)] == ["block_id", "seq"]
