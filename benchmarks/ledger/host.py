"""How fast the shared host runs Python right now.

The host the baseline was measured on slows for minutes at a time: the
same rep, setup and simulation alike, runs up to twice as long, with no
steal time reported, the host flipping between fast and slow states
every few seconds.  A slow phase that outlasts a run moves every rep of
it, so no median over reps removes it.  Each rep therefore also times
:func:`kernel`, a fixed event loop in plain Python built from the same
kinds of operation the simulator spends its time on (a heap of pending
events, generator resumes, slotted objects, float arithmetic), and the
runner scales the run's host times by :data:`REFERENCE_S` over the
kernel's mean time in that run.

The kernel is this benchmark's own code: nothing under ``src/`` changes
its time, so a slower simulator still reads slower.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The kernel's mean time (s) inside a rep on the baseline host in a
#: quiet phase; scaled host times are seconds on that host.
REFERENCE_S = 0.028
#: Kernel rounds timed at a go; a rep times them before and after its run.
ROUNDS = 4


class _Task:
    __slots__ = ("name", "left", "total")

    def __init__(self, name: str, left: int) -> None:
        self.name = name
        self.left = left
        self.total = 0.0


def _delays(task: _Task):
    while task.left:
        task.left -= 1
        yield 0.001 * (task.left % 7 + 1)


def kernel(tasks: int = 400, steps: int = 100) -> int:
    """Run ``tasks`` generator tasks of ``steps`` timed steps each off one
    event heap; returns the number of tasks finished."""
    heap, seq, done = [], 0, {}
    for i in range(tasks):
        task = _Task(f"t{i}", steps)
        delays = _delays(task)
        heapq.heappush(heap, (next(delays), seq, task, delays))
        seq += 1
    while heap:
        now, _seq, task, delays = heapq.heappop(heap)
        task.total += now
        try:
            delay = next(delays)
        except StopIteration:
            done[task.name] = task.total
            continue
        heapq.heappush(heap, (now + delay, seq, task, delays))
        seq += 1
    return len(done)


def reference_samples() -> list[float]:
    """Seconds each of :data:`ROUNDS` runs of :func:`kernel` took.

    The cyclic collector is off meanwhile (the kernel makes no cycles),
    so the time does not depend on how many objects the rep holds.
    """
    samples = []
    gc.disable()
    try:
        for _round in range(ROUNDS):
            started = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - started)
    finally:
        gc.enable()
    return samples
