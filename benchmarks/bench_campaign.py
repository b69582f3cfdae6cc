"""10k-client campaign benchmark: the batch completion kernel.

Not a paper figure — this measures the vectorized **batch completion
kernel** (``HdfsConfig.batch_completions``) against the scalar per-row
conductor on the campaign shape it was built for
(:func:`repro.workloads.campaign10k`: 100 pods x 100 clients x 10
datanodes at full scale, 4 MB files inside the data-queue bound so the
train's batched feeder engages on every block).  Timelines must be
bit-identical; the kernel's win shows up twice: the machine-independent
*event reduction* (the batched feeder retires a whole block's packet
stream with zero heap events per packet) and the wall-clock *speedup*.
Both runs are timed best-of-N because the ratio of two ~second walls is
noisy on shared runners; the event reduction is deterministic and
carries the hard floor.

Writes ``benchmarks/results/BENCH_campaign.json``; the CI perf-smoke
job checks it against the ``campaign`` group in ``perf_floor.json``.
"""

from __future__ import annotations

import os
import time

from conftest import write_bench_json

from repro.config import SimulationConfig
from repro.workloads import campaign10k, run_pods_single_env

#: Best-of-N timing for the scalar/batch pair (wall-ratio noise guard).
TIMING_REPS = 2


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed(fn):
    start = time.perf_counter()
    outcome = fn()
    return outcome, time.perf_counter() - start


def _best_of(fn, reps=TIMING_REPS):
    """Minimum wall over ``reps`` runs (outcome from the fastest run)."""
    best_outcome, best_wall = None, float("inf")
    for _ in range(reps):
        outcome, wall = _timed(fn)
        if wall < best_wall:
            best_outcome, best_wall = outcome, wall
    return best_outcome, best_wall


def test_campaign_batch_kernel(benchmark, results_dir, scale):
    """Scalar vs vectorized completion kernel on the campaign shape."""
    plan = campaign10k(scale=max(0.02, scale * 0.4))
    batch_config = SimulationConfig()
    scalar_config = batch_config.with_hdfs(batch_completions=0)
    cpus = _cpus()

    batch, batch_wall = benchmark.pedantic(
        lambda: _best_of(lambda: run_pods_single_env(plan, config=batch_config)),
        rounds=1,
        iterations=1,
    )
    scalar, scalar_wall = _best_of(
        lambda: run_pods_single_env(plan, config=scalar_config)
    )

    # The kernel contract: bit-identical timing, fewer heap events.
    assert batch.timeline == scalar.timeline
    assert batch.fully_replicated and scalar.fully_replicated
    assert batch.bytes_moved == scalar.bytes_moved

    speedup = scalar_wall / batch_wall if batch_wall > 0 else 0.0
    event_reduction = (
        scalar.events_processed / batch.events_processed
        if batch.events_processed
        else 0.0
    )
    eps = (
        round(batch.events_processed / batch_wall) if batch_wall > 0 else 0
    )
    bytes_sent, bytes_received = batch.bytes_moved

    lines = [
        f"campaign10k batch kernel "
        f"({len(plan.pods)} pods, {plan.n_clients} clients, "
        f"{plan.n_datanodes} datanodes)",
        f"cpus                 : {cpus}",
        f"makespan (simulated) : {batch.makespan:.6f}",
        f"aggregate bytes      : {bytes_sent} sent / {bytes_received} received",
        f"scalar kernel wall   : {scalar_wall:.3f}s "
        f"({scalar.events_processed} events)",
        f"batch kernel wall    : {batch_wall:.3f}s "
        f"({batch.events_processed} events, {eps} events/s)",
        f"wall speedup         : {speedup:.2f}x (best of {TIMING_REPS})",
        f"event reduction      : {event_reduction:.2f}x",
    ]
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / "campaign_kernel.txt").write_text(text)

    write_bench_json(
        results_dir,
        "campaign",
        "campaign10k",
        {
            "cpus": cpus,
            "n_pods": len(plan.pods),
            "n_clients": plan.n_clients,
            "n_datanodes": plan.n_datanodes,
            "file_bytes": plan.pods[0].file_bytes,
            "makespan": batch.makespan,
            "bytes_sent": bytes_sent,
            "bytes_received": bytes_received,
            "scalar_wall_seconds": round(scalar_wall, 3),
            "scalar_events": scalar.events_processed,
            "wall_seconds": round(batch_wall, 3),
            "events_processed": batch.events_processed,
            "events_per_sec": eps,
            "timeline_identical": True,  # asserted above
            "speedup": round(speedup, 2),
            "event_reduction": round(event_reduction, 2),
        },
    )
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["event_reduction"] = round(event_reduction, 2)

    # The machine-independent claim is enforced everywhere; the wall
    # ratio only where a second-long measurement can be trusted at all.
    assert event_reduction >= 1.5, (
        f"batch kernel removed only {event_reduction:.2f}x of the scalar "
        "event traffic"
    )

