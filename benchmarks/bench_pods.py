"""Per-pod environments: pod-partitioned multi-tenant campaigns.

Not a paper figure — this measures the two pod executors of
:mod:`repro.workloads.sharded` on the multi-tenant workloads where they
matter:

* ``scale64`` — the scale64 cluster shape cut into 8 independent pods
  (8 pods × 8 clients × 30 datanodes = 64 clients, 240 datanodes).
* ``scale256`` — the high-tenancy shape cut into 16 pods
  (16 pods × 16 clients × 4 datanodes = 256 clients, 64 datanodes).

Each workload runs every pod in one :class:`Environment` (the baseline)
and then each pod in a fresh environment on the worker-process backend
at shard counts {1, 2, 4, 8}.  Every run's per-client timeline must be
*identical* to the baseline — asserted, not assumed.  Wall-clock
speedup of the best process run over the baseline is the headline
number; it is asserted (≥ 2x) and floor-checked only on machines with
at least 4 CPUs, because a single-core runner cannot parallelize
anything — the measured CPU count is recorded in ``BENCH_pods.json``
so ``check_perf_floor.py`` can tell the difference.

Writes ``benchmarks/results/BENCH_pods.json``; the CI perf-smoke job
checks it against the ``pods`` group in ``perf_floor.json``.
"""

from __future__ import annotations

import os
import time

from conftest import write_bench_json

from repro.config import SimulationConfig
from repro.units import KB, MB
from repro.workloads import PodPlan, run_pods_single_env, run_pods_sharded

#: Worker-process backend shard counts measured per workload.
SHARD_COUNTS = (1, 2, 4, 8)

#: Parallel speedup is only physically possible with multiple cores;
#: below this the ≥2x assertion is recorded but not enforced.
MIN_CPUS_FOR_SPEEDUP = 4


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _config() -> SimulationConfig:
    return SimulationConfig().with_hdfs(
        block_size=256 * KB, packet_size=64 * KB, heartbeat_interval=0.5
    )


def _timed(fn):
    start = time.perf_counter()
    outcome = fn()
    return outcome, time.perf_counter() - start


def _run_matrix(benchmark, results_dir, section, plan, bench_shards):
    """Baseline vs process backend; write one section."""
    config = _config()
    cpus = _cpus()

    baseline, base_wall = _timed(
        lambda: run_pods_single_env(plan, config=config)
    )
    assert baseline.fully_replicated

    process_rows = []
    best_speedup = 0.0
    for shards in SHARD_COUNTS:
        if shards == bench_shards:
            outcome, wall = benchmark.pedantic(
                lambda: _timed(
                    lambda: run_pods_sharded(plan, shards=bench_shards, config=config)
                ),
                rounds=1,
                iterations=1,
            )
        else:
            outcome, wall = _timed(
                lambda: run_pods_sharded(plan, shards=shards, config=config)
            )
        assert outcome.timeline == baseline.timeline
        assert outcome.fully_replicated
        speedup = base_wall / wall if wall > 0 else 0.0
        best_speedup = max(best_speedup, speedup)
        process_rows.append(
            {
                "shards": shards,
                "wall_seconds": round(wall, 3),
                "speedup": round(speedup, 2),
                "shard_events": outcome.shard_events,
            }
        )

    eps = (
        round(baseline.events_processed / base_wall) if base_wall > 0 else 0
    )
    lines = [
        f"{section} pod workload "
        f"({len(plan.pods)} pods, {plan.n_clients} clients, "
        f"{plan.n_datanodes} datanodes)",
        f"cpus                 : {cpus}",
        f"makespan (simulated) : {baseline.makespan:.6f}",
        f"baseline events      : {baseline.events_processed}",
        f"baseline wall        : {base_wall:.3f}s  ({eps} events/s)",
    ]
    for row in process_rows:
        lines.append(
            f"processes x{row['shards']:<2}        : "
            f"{row['wall_seconds']:.3f}s  ({row['speedup']:.2f}x)"
        )
    lines.append(f"best process speedup : {best_speedup:.2f}x")
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / f"pods_{section}.txt").write_text(text)

    write_bench_json(
        results_dir,
        "pods",
        section,
        {
            "cpus": cpus,
            "n_pods": len(plan.pods),
            "n_clients": plan.n_clients,
            "n_datanodes": plan.n_datanodes,
            "file_bytes": plan.pods[0].file_bytes,
            "makespan": baseline.makespan,
            "events_processed": baseline.events_processed,
            "wall_seconds": round(base_wall, 3),
            "events_per_sec": eps,
            "timeline_identical": True,  # asserted above, for every mode
            "process_runs": process_rows,
            "speedup": round(best_speedup, 2),
        },
    )
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["speedup"] = round(best_speedup, 2)
    benchmark.extra_info["cpus"] = cpus

    # A single-core machine cannot speed anything up by adding workers;
    # enforce the parallel claim only where it is physically possible.
    if cpus >= MIN_CPUS_FOR_SPEEDUP:
        assert best_speedup >= 2.0, (
            f"process backend reached only {best_speedup:.2f}x "
            f"on {cpus} CPUs"
        )


def test_pods_scale64(benchmark, results_dir, scale):
    """64 clients / 240 datanodes, cut into 8 independent pods."""
    plan = PodPlan.regular(
        n_pods=8,
        clients_per_pod=8,
        datanodes_per_pod=30,
        file_bytes=max(512 * KB, int(16 * MB * scale)),
        stagger=0.05,
    )
    _run_matrix(benchmark, results_dir, "scale64", plan, bench_shards=4)


def test_pods_scale256(benchmark, results_dir, scale):
    """256 clients / 64 datanodes, cut into 16 high-tenancy pods."""
    plan = PodPlan.regular(
        n_pods=16,
        clients_per_pod=16,
        datanodes_per_pod=4,
        file_bytes=max(512 * KB, int(4 * MB * scale)),
        stagger=0.02,
    )
    _run_matrix(benchmark, results_dir, "scale256", plan, bench_shards=8)
