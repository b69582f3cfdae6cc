"""Shared process-pool fan-out with named-task failure reporting.

Both places the simulator farms work out to child processes — the
experiment runner's ``run_all --jobs`` and the pod executor in
:mod:`repro.workloads.sharded` — need the same contract: results return
in task order, a child failure names *which* task died (no silent
``None`` holes to hole-check downstream), and ``jobs=1`` degrades to a
plain sequential loop with identical semantics.  This module is that one
implementation.  It imports :mod:`concurrent.futures` (and with it
:mod:`multiprocessing`) only when ``jobs > 1`` asks for a pool, so a
sequential run never loads them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

__all__ = ["WorkerFailure", "map_named"]


class WorkerFailure(RuntimeError):
    """One or more pool tasks failed.

    Carries the first failed task's name and exception (``__cause__`` is
    chained for the traceback) plus every failed name, so a 30-task
    fan-out reports "fig7 failed", not a bare pickle of the exception.
    """

    def __init__(self, name: str, cause: BaseException, all_failed: Sequence[str]):
        detail = ""
        if len(all_failed) > 1:
            detail = f" (failed tasks: {', '.join(all_failed)})"
        super().__init__(f"worker task {name!r} failed: {cause!r}{detail}")
        self.name = name
        self.cause = cause
        self.failed_names = tuple(all_failed)


def map_named(
    fn: Callable[..., Any],
    tasks: Sequence[tuple[str, tuple]],
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> list[Any]:
    """Run ``fn(*args)`` for every ``(name, args)`` task; results in order.

    ``jobs == 1`` (or a single task) runs sequentially in-process, calling
    ``progress`` with each task's name *before* it starts; ``jobs > 1``
    submits to a :class:`ProcessPoolExecutor` of that many workers and
    calls ``progress`` as tasks *complete* (``fn`` and every ``args``
    element must pickle).  Any child failure raises
    :class:`WorkerFailure` naming the earliest failed task in input
    order — callers never receive a partially-``None`` result list.
    """
    names = [name for name, _ in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"task names must be unique, got {names}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    if jobs == 1 or len(tasks) <= 1:
        results = []
        for name, args in tasks:
            if progress:
                progress(name)
            try:
                results.append(fn(*args))
            except Exception as exc:
                raise WorkerFailure(name, exc, [name]) from exc
        return results

    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {pool.submit(fn, *args): name for name, args in tasks}
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            if progress:
                for future in done:
                    progress(futures[future])
        by_name: dict[str, Any] = {}
        failed: list[tuple[str, BaseException]] = []
        for future, name in futures.items():
            exc = future.exception()
            if exc is not None:
                failed.append((name, exc))
            else:
                by_name[name] = future.result()

    if failed:
        failed.sort(key=lambda item: names.index(item[0]))
        first_name, first_exc = failed[0]
        raise WorkerFailure(
            first_name, first_exc, [name for name, _ in failed]
        ) from first_exc
    return [by_name[name] for name in names]
