"""Versioned on-disk snapshots for checkpoint/resume.

A snapshot is a pickle of ``{"format", "version", "state"}`` where
``state`` is plain data only — dataclasses, dicts, lists, RNG state
tuples — captured at a *quiescent barrier* (empty event schedule).
Generator frames are never serialized; resume rebuilds the deployment
from the spec and replays plain state into it, which is what makes the
byte-identical-continuation guarantee provable rather than hopeful.
"""

from __future__ import annotations

import pickle

from ..sim import SnapshotError

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "save_snapshot", "load_snapshot"]

SNAPSHOT_FORMAT = "repro-service-snapshot"
SNAPSHOT_VERSION = 2


def save_snapshot(path, state: dict) -> None:
    """Write ``state`` to ``path`` as a versioned snapshot file."""
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "state": state,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_snapshot(path) -> dict:
    """Read and validate a snapshot file; returns the ``state`` dict."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError) as err:
        raise SnapshotError(f"cannot read snapshot {path}: {err}") from err
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return payload["state"]
