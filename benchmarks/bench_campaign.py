"""10k-client campaign benchmark: packet trains against the per-packet loop.

Not a paper figure — this measures the packet trains on the campaign
shape (:func:`repro.workloads.campaign10k`: 100 pods x 100 clients x 10
datanodes at full scale, 4 MB files) against their oracle, the
per-packet write loop (``coalesce_packets=1``), as
``test_batch_equivalence.py`` does.  Timelines must be bit-identical;
the trains' win is the wall-clock *speedup*.  Both runs are timed
best-of-N because the ratio of two ~second walls is noisy on shared
runners.  The *event reduction* (a train plans its whole block at start,
production included, and costs a handful of milestones) is recorded for
information: it is deterministic, and ``test_batch_equivalence.py`` pins
both counts on ``campaign10k(0.02)`` and floors their ratio.

Writes ``benchmarks/results/BENCH_campaign.json``; the CI perf-smoke
job checks it against the ``campaign`` group in ``perf_floor.json``.
"""

from __future__ import annotations

import os
import time

from conftest import write_bench_json

from repro.config import SimulationConfig
from repro.workloads import campaign10k, run_pods_single_env

#: Best-of-N timing for the per-packet/train pair (wall-ratio noise guard).
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


def test_campaign_trains(benchmark, results_dir, scale):
    """Trains vs the per-packet loop on the campaign shape."""
    plan = campaign10k(scale=max(0.02, scale * 0.4))
    cpus = _cpus()

    trains, train_wall = benchmark.pedantic(
        lambda: _best_of(
            lambda: run_pods_single_env(plan, config=SimulationConfig())
        ),
        rounds=1,
        iterations=1,
    )
    per_packet_config = SimulationConfig().with_hdfs(coalesce_packets=1)
    per_packet, per_packet_wall = _best_of(
        lambda: run_pods_single_env(plan, config=per_packet_config)
    )

    # The train contract: bit-identical timing, fewer heap events.
    assert trains.timeline == per_packet.timeline
    assert trains.fully_replicated and per_packet.fully_replicated
    assert trains.bytes_moved == per_packet.bytes_moved

    speedup = per_packet_wall / train_wall if train_wall > 0 else 0.0
    event_reduction = (
        per_packet.events_processed / trains.events_processed
        if trains.events_processed
        else 0.0
    )
    eps = (
        round(trains.events_processed / train_wall) if train_wall > 0 else 0
    )
    bytes_sent, bytes_received = trains.bytes_moved

    lines = [
        f"campaign10k trains vs per-packet loop "
        f"({len(plan.pods)} pods, {plan.n_clients} clients, "
        f"{plan.n_datanodes} datanodes)",
        f"cpus                 : {cpus}",
        f"makespan (simulated) : {trains.makespan:.6f}",
        f"aggregate bytes      : {bytes_sent} sent / {bytes_received} received",
        f"per-packet wall      : {per_packet_wall:.3f}s "
        f"({per_packet.events_processed} events)",
        f"train wall           : {train_wall:.3f}s "
        f"({trains.events_processed} events, {eps} events/s)",
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
            "makespan": trains.makespan,
            "bytes_sent": bytes_sent,
            "bytes_received": bytes_received,
            "per_packet_wall_seconds": round(per_packet_wall, 3),
            "per_packet_events": per_packet.events_processed,
            "wall_seconds": round(train_wall, 3),
            "events_processed": trains.events_processed,
            "events_per_sec": eps,
            "timeline_identical": True,  # asserted above
            "speedup": round(speedup, 2),
            "event_reduction": round(event_reduction, 2),
        },
    )
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["event_reduction"] = round(event_reduction, 2)

