"""Per-flow transfer accounting.

The transport layer records every completed transfer into
:class:`FlowStats` (:meth:`FlowStats.add`), and packet and read trains
record theirs when they settle, a column at a time
(:meth:`FlowStats.record_run`); neither builds a :class:`FlowSample`
unless samples are kept.  Nothing in the simulator reads
the flows back — SMARTH's speed records come from FNFA timing
(``SmarthClient._await_fnfa``).  The readers are the transport tests and
the read-train equivalence test, which compares every retained flow of
the train against the per-chunk loop's.

By default :class:`FlowStats` *aggregates*: each (src, dst) pair keeps
byte/time/count accumulators, so memory is O(node pairs) no matter how
many packets fly — an 8 GB upload is over a million transfers, and
retaining a FlowSample for each grew without bound.  Tests and debugging
can opt back into full retention with ``keep_samples=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FlowSample", "FlowStats"]


@dataclass(frozen=True)
class FlowSample:
    """One completed transfer: ``size`` bytes from ``src`` to ``dst``."""

    src: str
    dst: str
    size: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Observed rate in bytes/second (0 for zero-duration transfers)."""
        return self.size / self.duration if self.duration > 0 else 0.0


class FlowStats:
    """Accumulates transfer statistics grouped by (src, dst) node pair.

    Aggregating by default; pass ``keep_samples=True`` to also retain
    every :class:`FlowSample` (unbounded memory — opt-in for tests).
    """

    def __init__(self, keep_samples: bool = False):
        self.keep_samples = keep_samples
        self._samples: list[FlowSample] = []
        #: (src, dst) -> [total_bytes, total_duration, count]
        self._agg: dict[tuple[str, str], list] = {}
        self._count = 0

    @property
    def samples(self) -> list[FlowSample]:
        """Retained samples (empty unless ``keep_samples`` was set)."""
        return self._samples

    def record(self, sample: FlowSample) -> None:
        self._tally(sample.src, sample.dst, sample.size, sample.end - sample.start)
        if self.keep_samples:
            self._samples.append(sample)

    def add(
        self, src: str, dst: str, size: int, start: float, end: float
    ) -> FlowSample | None:
        """Record one transfer; build its :class:`FlowSample` only when
        samples are kept, and return it (else ``None``).

        The accumulators see the same additions as :meth:`record` of the
        sample would make.
        """
        self._tally(src, dst, size, end - start)
        if not self.keep_samples:
            return None
        sample = FlowSample(src, dst, size, start, end)
        self._samples.append(sample)
        return sample

    def _tally(self, src: str, dst: str, size: int, seconds: float) -> None:
        acc = self._agg.get((src, dst))
        if acc is None:
            acc = self._agg[(src, dst)] = [0, 0.0, 0]
        acc[0] += size
        acc[1] += seconds
        acc[2] += 1
        self._count += 1

    def record_run(
        self,
        src: str,
        dst: str,
        sizes: Sequence[int],
        starts: Sequence[float],
        ends: Sequence[float],
        n: int,
    ) -> None:
        """Record transfers ``0..n-1`` of a run from ``src`` to ``dst``.

        Transfer ``k`` moved ``sizes[k]`` bytes from ``starts[k]`` to
        ``ends[k]``.  Equal to ``n`` :meth:`record` calls in order: the
        accumulators add the transfers one at a time, so every float
        total is the same, but a :class:`FlowSample` is built only when
        samples are kept.
        """
        if n <= 0:
            return
        acc = self._agg.get((src, dst))
        if acc is None:
            acc = self._agg[(src, dst)] = [0, 0.0, 0]
        nbytes, seconds = acc[0], acc[1]
        for k in range(n):
            nbytes += sizes[k]
            seconds += ends[k] - starts[k]
        acc[0], acc[1] = nbytes, seconds
        acc[2] += n
        self._count += n
        if self.keep_samples:
            self._samples.extend(
                FlowSample(src, dst, sizes[k], starts[k], ends[k])
                for k in range(n)
            )

    def total_bytes(self, src: str | None = None, dst: str | None = None) -> int:
        """Total bytes over flows matching the given endpoints (None = any)."""
        return sum(
            acc[0]
            for (s, d), acc in self._agg.items()
            if (src is None or s == src) and (dst is None or d == dst)
        )

    def mean_rate(self, src: str, dst: str) -> float:
        """Average observed rate between a pair, 0.0 if never measured."""
        acc = self._agg.get((src, dst))
        if acc is None:
            return 0.0
        total_bytes, total_time, _ = acc
        return total_bytes / total_time if total_time > 0 else 0.0

    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._agg))

    def __len__(self) -> int:
        return self._count
