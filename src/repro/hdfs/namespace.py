"""The namenode's file-system namespace.

Implements the §II step 1 checks: existence, (trivially granted)
permissions, and single-writer leases.  Only the slice of the
namespace API the write path exercises is modelled — create, add-block
bookkeeping, and completion — but with real state transitions so tests can
assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .protocol import (
    Block,
    FileAlreadyExists,
    FileNotFound,
    LeaseConflict,
)

__all__ = ["FileState", "INodeFile", "Namespace"]


class FileState(Enum):
    UNDER_CONSTRUCTION = "under_construction"
    COMPLETE = "complete"


@dataclass(slots=True)
class INodeFile:
    """Namespace entry for one file."""

    path: str
    client: str
    state: FileState = FileState.UNDER_CONSTRUCTION
    blocks: list[Block] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)


class Namespace:
    """In-memory namespace with single-writer leases."""

    def __init__(self) -> None:
        self._files: dict[str, INodeFile] = {}

    # -- write path --------------------------------------------------------
    def create(self, path: str, client: str) -> INodeFile:
        """§II step 1: validate and create a namespace entry."""
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute, got {path!r}")
        if path in self._files:
            raise FileAlreadyExists(path)
        inode = INodeFile(path=path, client=client)
        self._files[path] = inode
        return inode

    def get(self, path: str) -> INodeFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def check_lease(self, path: str, client: str) -> INodeFile:
        """Verify ``client`` holds the single-writer lease on ``path``."""
        inode = self.get(path)
        if inode.state is not FileState.UNDER_CONSTRUCTION:
            raise LeaseConflict(f"{path} is not under construction")
        if inode.client != client:
            raise LeaseConflict(
                f"{path} is leased by {inode.client!r}, not {client!r}"
            )
        return inode

    def append_block(self, path: str, client: str, block: Block) -> None:
        """Record a freshly allocated block on the file."""
        inode = self.check_lease(path, client)
        inode.blocks.append(block)

    def replace_block(self, path: str, block: Block) -> None:
        """Swap a block entry after a generation-stamp bump (recovery)."""
        inode = self.get(path)
        for i, existing in enumerate(inode.blocks):
            if existing.block_id == block.block_id:
                inode.blocks[i] = block
                return
        raise FileNotFound(f"block {block.block_id} not on {path}")

    def complete(self, path: str, client: str) -> INodeFile:
        """§II step 6: the client signals all ACKs received."""
        inode = self.check_lease(path, client)
        inode.state = FileState.COMPLETE
        return inode

    def exists(self, path: str) -> bool:
        return path in self._files

    def files(self) -> tuple[str, ...]:
        return tuple(sorted(self._files))

    def __len__(self) -> int:
        return len(self._files)
