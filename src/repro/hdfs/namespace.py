"""The namenode's file-system namespace.

Implements the §II step 1 checks: existence, (trivially granted)
permissions, safe mode, and single-writer leases.  Only the slice of the
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
    SafeModeException,
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
    """In-memory namespace with leases and safe mode."""

    def __init__(self) -> None:
        self._files: dict[str, INodeFile] = {}
        self._safe_mode = False

    # -- safe mode ---------------------------------------------------------
    @property
    def safe_mode(self) -> bool:
        return self._safe_mode

    def enter_safe_mode(self) -> None:
        self._safe_mode = True

    def leave_safe_mode(self) -> None:
        self._safe_mode = False

    def _check_writable(self) -> None:
        if self._safe_mode:
            raise SafeModeException("namenode is in safe mode")

    # -- write path --------------------------------------------------------
    def create(self, path: str, client: str, overwrite: bool = False) -> INodeFile:
        """§II step 1: validate and create a namespace entry."""
        self._check_writable()
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute, got {path!r}")
        existing = self._files.get(path)
        if existing is not None and not overwrite:
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
        self._check_writable()
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
        self._check_writable()
        inode = self.check_lease(path, client)
        inode.state = FileState.COMPLETE
        return inode

    def exists(self, path: str) -> bool:
        return path in self._files

    def files(self) -> tuple[str, ...]:
        return tuple(sorted(self._files))

    # -- snapshot protocol ---------------------------------------------------
    def export_state(self) -> dict:
        """Plain-data state for checkpointing (inodes are plain dataclasses)."""
        return {"files": dict(self._files), "safe_mode": self._safe_mode}

    def restore_state(self, state: dict) -> None:
        self._files = dict(state["files"])
        self._safe_mode = bool(state["safe_mode"])

    def __len__(self) -> int:
        return len(self._files)
