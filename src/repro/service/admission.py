"""Admission control for the ingest service.

A pure state machine (no environment or process references, so it is
trivially checkpointable and property-testable): at most ``max_inflight``
uploads run concurrently, at most ``queue_limit`` wait in a FIFO queue,
and everything beyond that is *rejected* — bounded-queue backpressure,
not silent unbounded buffering.

Conservation invariant (checked at every drain): every arrival is
eventually exactly one of completed, failed or rejected, and the queue
never exceeds its bound.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AdmissionController"]

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"


class AdmissionController:
    """Bounded-concurrency, bounded-queue admission state machine."""

    def __init__(self, max_inflight: int, queue_limit: int):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.queue: list = []
        self.inflight = 0
        # Monotone counters.
        self.arrivals = 0
        self.admitted = 0
        self.enqueued = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.dequeued = 0
        # High-water marks.
        self.max_queue_depth = 0
        self.max_inflight_seen = 0

    # ------------------------------------------------------------------
    def on_arrival(self, item) -> str:
        """Decide one arrival: ``admit`` | ``queue`` | ``reject``."""
        self.arrivals += 1
        if self.inflight < self.max_inflight:
            self.inflight += 1
            self.admitted += 1
            if self.inflight > self.max_inflight_seen:
                self.max_inflight_seen = self.inflight
            return ADMIT
        if len(self.queue) < self.queue_limit:
            self.queue.append(item)
            self.enqueued += 1
            if len(self.queue) > self.max_queue_depth:
                self.max_queue_depth = len(self.queue)
            return QUEUE
        self.rejected += 1
        return REJECT

    def on_done(self, ok: bool) -> Optional[object]:
        """One upload finished; returns the dequeued next item, if any."""
        if self.inflight <= 0:
            raise RuntimeError("on_done with no inflight uploads")
        self.inflight -= 1
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        if self.queue:
            item = self.queue.pop(0)
            self.dequeued += 1
            self.inflight += 1
            return item
        return None

    # -- invariants --------------------------------------------------------
    @property
    def settled(self) -> int:
        """Arrivals with a final outcome."""
        return self.completed + self.failed + self.rejected

    def check_drained(self) -> None:
        """Assert the conservation invariant at a quiescent point."""
        if self.inflight != 0 or self.queue:
            raise AssertionError(
                f"not drained: inflight={self.inflight} "
                f"queued={len(self.queue)}"
            )
        if self.arrivals != self.settled:
            raise AssertionError(
                f"conservation violated: arrivals={self.arrivals} != "
                f"completed={self.completed} + failed={self.failed} + "
                f"rejected={self.rejected}"
            )
