"""Unit tests for the namenode namespace (§II step 1 checks)."""

import pytest

from repro.hdfs import (
    FileAlreadyExists,
    FileNotFound,
    FileState,
    LeaseConflict,
    Namespace,
)
from repro.hdfs.protocol import Block


@pytest.fixture()
def ns():
    return Namespace()


class TestCreate:
    def test_create_registers_file(self, ns):
        inode = ns.create("/a/b", client="c1")
        assert inode.state is FileState.UNDER_CONSTRUCTION
        assert ns.exists("/a/b")
        assert len(ns) == 1

    def test_relative_path_rejected(self, ns):
        with pytest.raises(ValueError):
            ns.create("relative/path", client="c1")

    def test_duplicate_create_raises(self, ns):
        ns.create("/f", client="c1")
        with pytest.raises(FileAlreadyExists):
            ns.create("/f", client="c2")


class TestLeases:
    def test_lease_enforced(self, ns):
        ns.create("/f", client="c1")
        with pytest.raises(LeaseConflict):
            ns.check_lease("/f", "c2")
        assert ns.check_lease("/f", "c1").path == "/f"

    def test_completed_file_has_no_lease(self, ns):
        ns.create("/f", client="c1")
        ns.complete("/f", "c1")
        with pytest.raises(LeaseConflict):
            ns.check_lease("/f", "c1")

    def test_get_missing_raises(self, ns):
        with pytest.raises(FileNotFound):
            ns.get("/missing")


class TestBlocks:
    def _block(self, bid, path, index=0, size=64):
        return Block(block_id=bid, path=path, index=index, size=size)

    def test_append_block_accumulates(self, ns):
        ns.create("/f", client="c1")
        ns.append_block("/f", "c1", self._block(1, "/f", 0, 10))
        ns.append_block("/f", "c1", self._block(2, "/f", 1, 20))
        inode = ns.get("/f")
        assert [b.block_id for b in inode.blocks] == [1, 2]
        assert inode.size == 30

    def test_append_requires_lease(self, ns):
        ns.create("/f", client="c1")
        with pytest.raises(LeaseConflict):
            ns.append_block("/f", "c2", self._block(1, "/f"))

    def test_replace_block_swaps_generation(self, ns):
        ns.create("/f", client="c1")
        block = self._block(7, "/f")
        ns.append_block("/f", "c1", block)
        ns.replace_block("/f", block.with_generation(3))
        assert ns.get("/f").blocks[0].generation == 3

    def test_replace_unknown_block_raises(self, ns):
        ns.create("/f", client="c1")
        with pytest.raises(FileNotFound):
            ns.replace_block("/f", self._block(99, "/f"))

    def test_complete_transitions_state(self, ns):
        ns.create("/f", client="c1")
        inode = ns.complete("/f", "c1")
        assert inode.state is FileState.COMPLETE

    def test_files_listing_sorted(self, ns):
        ns.create("/b", client="c")
        ns.create("/a", client="c")
        assert ns.files() == ("/a", "/b")
