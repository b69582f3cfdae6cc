"""Unit tests for namenode block/replica bookkeeping."""

import pytest

from repro.hdfs import BlockManager, BlockState, FileNotFound


@pytest.fixture()
def bm():
    return BlockManager()


class TestAllocation:
    def test_ids_are_unique_and_increasing(self, bm):
        blocks = [bm.allocate("/f", i, 64) for i in range(5)]
        ids = [b.block_id for b in blocks]
        assert ids == sorted(set(ids))
        assert len(bm) == 5

    def test_allocate_records_info(self, bm):
        block = bm.allocate("/f", 0, 64)
        info = bm.info(block.block_id)
        assert info.state is BlockState.UNDER_CONSTRUCTION
        assert info.replicas == {}

    def test_unknown_block_raises(self, bm):
        with pytest.raises(FileNotFound):
            bm.info(9999)


class TestReplicas:
    def test_expect_then_receive(self, bm):
        block = bm.allocate("/f", 0, 64)
        bm.expect_replicas(block.block_id, ("dn0", "dn1", "dn2"))
        assert bm.replication_of(block.block_id) == 0  # pending, not final
        bm.replica_received(block.block_id, "dn0", 64)
        bm.replica_received(block.block_id, "dn1", 64)
        assert bm.replication_of(block.block_id) == 2
        assert bm.locations(block.block_id) == ("dn0", "dn1")

    def test_under_replicated(self, bm):
        b1 = bm.allocate("/f", 0, 64)
        b2 = bm.allocate("/f", 1, 64)
        for dn in ("dn0", "dn1", "dn2"):
            bm.replica_received(b1.block_id, dn, 64)
        bm.replica_received(b2.block_id, "dn0", 64)
        assert bm.under_replicated(3) == (b2.block_id,)
        assert bm.under_replicated(1) == ()

    def test_drop_replica(self, bm):
        block = bm.allocate("/f", 0, 64)
        bm.replica_received(block.block_id, "dn0", 64)
        bm.drop_replica(block.block_id, "dn0")
        assert bm.replication_of(block.block_id) == 0

    def test_remove_datanode_sweeps_all_blocks(self, bm):
        b1 = bm.allocate("/f", 0, 64)
        b2 = bm.allocate("/f", 1, 64)
        bm.replica_received(b1.block_id, "dn0", 64)
        bm.replica_received(b2.block_id, "dn0", 64)
        bm.replica_received(b2.block_id, "dn1", 64)
        affected = bm.remove_datanode("dn0")
        assert affected == (b1.block_id, b2.block_id)
        assert bm.locations(b2.block_id) == ("dn1",)

    def test_blocks_on(self, bm):
        b1 = bm.allocate("/f", 0, 64)
        bm.expect_replicas(b1.block_id, ("dn5",))
        assert bm.blocks_on("dn5") == (b1.block_id,)
        assert bm.blocks_on("dn9") == ()


class TestGeneration:
    def test_bump_generation(self, bm):
        block = bm.allocate("/f", 0, 64)
        assert block.generation == 0
        bumped = bm.bump_generation(block.block_id)
        assert bumped.generation == 1
        assert bm.info(block.block_id).block.generation == 1

    def test_commit(self, bm):
        block = bm.allocate("/f", 0, 64)
        bm.commit(block.block_id)
        assert bm.info(block.block_id).state is BlockState.COMPLETE
