"""Versioned on-disk snapshots for checkpoint/resume.

A snapshot is a pickle of ``{"format", "version", "service"}`` where
``service`` is the :class:`~repro.service.IngestService` itself, taken at
a *quiescent barrier*: the schedule is empty and every process has
finished and dropped its generator, so the whole object graph (the
environment, the deployment, the namenode's state, the journal, the
metrics, the admission counters and the arrival streams) is plain data.
A snapshot is read back only by the build that wrote it: its classes are
this build's classes, and another version is refused.  :mod:`pickle` is
imported where a snapshot is saved or loaded, so a run that takes no
snapshot never loads it.
"""

from __future__ import annotations

from ..sim import SnapshotError

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "save_snapshot", "load_snapshot"]

SNAPSHOT_FORMAT = "repro-service-snapshot"
SNAPSHOT_VERSION = 6


def save_snapshot(path, service) -> None:
    """Write the quiescent ``service`` to ``path`` as a snapshot file.

    Refuses a service whose environment still has events pending: their
    processes are alive, and their generator frames cannot be pickled.
    """
    import pickle

    pending = len(service.env)
    if pending:
        raise SnapshotError(
            f"cannot snapshot a service with {pending} events pending"
        )
    payload = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "service": service,
    }
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_snapshot(path):
    """Read and validate a snapshot file; returns the service it holds.

    A file that does not unpickle is refused too.  Besides a damaged
    file, that is a snapshot of another version whose objects this
    build's classes cannot take back (an ``AttributeError``): a version
    4 journal event is a dataclass with a ``__dict__``, and this build's
    is slotted.
    """
    import pickle

    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, EOFError, AttributeError, pickle.UnpicklingError) as err:
        raise SnapshotError(f"cannot read snapshot {path}: {err}") from err
    if not isinstance(payload, dict) or payload.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    version = payload.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return payload.get("service")
