"""Kernel microbenchmark: raw event throughput of the simulation core.

Not a paper figure — this measures the discrete-event engine itself so
perf work on the hot loop (the analytic channel fast path, the sync
store completions) has a number to move.  The workload exercises the
primitives the packet pipeline leans on: timeouts, analytic channel
transfers, and store put/get handoffs between producer/consumer pairs.

Writes events/sec to ``benchmarks/results/kernel.txt`` and attaches it
to pytest-benchmark's ``extra_info``.
"""

import time

from conftest import write_bench_json

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsClient, HdfsDeployment
from repro.sim import (
    Channel,
    Environment,
    ProcessGenerator,
    Store,
    total_events_processed,
)
from repro.units import KB, MB

#: Concurrent producer/consumer pairs; enough to keep the heap non-trivial.
PAIRS = 20
#: Transfers each producer pushes through its channel.
TRANSFERS = 2_000


def _producer(env: Environment, channel: Channel, queue: Store) -> ProcessGenerator:
    for seq in range(TRANSFERS):
        end = channel.quote(size=64 * 1024, rate=100e6)
        yield env.timeout_at(end)
        yield queue.put(seq)


def _consumer(env: Environment, queue: Store) -> ProcessGenerator:
    for _ in range(TRANSFERS):
        yield queue.get()
        yield env.timeout(1e-6)


def _run_kernel_workload() -> Environment:
    env = Environment()
    for i in range(PAIRS):
        channel = Channel(env, name=f"ch{i}")
        queue: Store = Store(env, capacity=64)
        env.process(_producer(env, channel, queue), name=f"prod{i}")
        env.process(_consumer(env, queue), name=f"cons{i}")
    env.run()
    return env


def test_kernel_throughput(benchmark, results_dir):
    events_before = total_events_processed()
    wall_start = time.perf_counter()
    env = benchmark.pedantic(_run_kernel_workload, rounds=1, iterations=1)
    elapsed = time.perf_counter() - wall_start
    events = total_events_processed() - events_before
    events_per_sec = round(events / elapsed) if elapsed > 0 else 0

    text = (
        "kernel microbenchmark\n"
        f"pairs            : {PAIRS}\n"
        f"transfers/pair   : {TRANSFERS}\n"
        f"heap events      : {events}\n"
        f"wall seconds     : {elapsed:.3f}\n"
        f"events_per_sec   : {events_per_sec}\n"
    )
    print("\n" + text)
    (results_dir / "kernel.txt").write_text(text)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = events_per_sec
    write_bench_json(
        results_dir,
        "kernel",
        "microbench",
        {
            "pairs": PAIRS,
            "transfers_per_pair": TRANSFERS,
            "events_processed": events,
            "wall_seconds": round(elapsed, 3),
            "events_per_sec": events_per_sec,
        },
    )

    # Sanity: the workload actually ran to completion.
    assert env.events_processed > PAIRS * TRANSFERS
    assert events >= env.events_processed


# ---------------------------------------------------------------------------
#: Pipeline workload: one client uploading this much through 3-replica
#: pipelines — the hot loop the packet-train fast path coalesces.
PIPELINE_UPLOAD = 256 * MB


def _run_pipeline_workload(coalesce_packets: int):
    """One baseline-HDFS upload; returns (duration, events, wall)."""
    config = SimulationConfig().with_hdfs(
        block_size=32 * MB,
        packet_size=64 * KB,
        coalesce_packets=coalesce_packets,
    )
    env = Environment()
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = HdfsDeployment(cluster)
    client = HdfsClient(deployment)
    events_before = total_events_processed()
    wall_start = time.perf_counter()
    result = env.run(
        until=env.process(client.put("/bench/pipeline.bin", PIPELINE_UPLOAD))
    )
    wall = time.perf_counter() - wall_start
    events = total_events_processed() - events_before
    return result.duration, events, wall


def test_pipeline_train_throughput(benchmark, results_dir):
    """Packet-train coalescing: same simulated timeline, less wall time.

    The section's ``events_per_sec`` is the per-packet run's: that run
    drives the kernel through this pipeline shape event by event, so its
    rate is the kernel throughput the floor gates.  A train retires most
    of its work without events, so its own rate is recorded
    (``train_events_per_sec``) but not gated; the train's win is gated
    as ``speedup``, the per-packet wall over the train wall.  The event
    reduction is recorded for information: it is deterministic, and
    ``tests/hdfs/test_packet_train.py::test_kernel_pipeline_counts`` pins
    both counts and floors their ratio.
    """
    legacy_duration, legacy_events, legacy_wall = _run_pipeline_workload(1)
    duration, events, wall = benchmark.pedantic(
        lambda: _run_pipeline_workload(0), rounds=1, iterations=1
    )

    train_eps = round(events / wall) if wall > 0 else 0
    legacy_eps = round(legacy_events / legacy_wall) if legacy_wall > 0 else 0
    event_ratio = legacy_events / events
    speedup = legacy_wall / wall if wall > 0 else 0.0

    text = (
        "pipeline workload (baseline HDFS upload, 3-replica pipelines)\n"
        f"upload bytes          : {PIPELINE_UPLOAD}\n"
        f"legacy heap events    : {legacy_events}\n"
        f"train heap events     : {events}\n"
        f"event reduction       : {event_ratio:.1f}x\n"
        f"legacy wall seconds   : {legacy_wall:.3f}\n"
        f"train wall seconds    : {wall:.3f}\n"
        f"legacy events_per_sec : {legacy_eps}\n"
        f"train events_per_sec  : {train_eps}\n"
        f"wall speedup          : {speedup:.2f}x\n"
    )
    print("\n" + text)
    (results_dir / "kernel_pipeline.txt").write_text(text)
    write_bench_json(
        results_dir,
        "kernel",
        "pipeline",
        {
            "upload_bytes": PIPELINE_UPLOAD,
            "events_processed": events,
            "wall_seconds": round(wall, 3),
            "train_events_per_sec": train_eps,
            "legacy_events_processed": legacy_events,
            "legacy_wall_seconds": round(legacy_wall, 3),
            "events_per_sec": legacy_eps,
            "event_reduction": round(event_ratio, 2),
            "speedup": round(speedup, 2),
        },
    )
    benchmark.extra_info["event_reduction"] = round(event_ratio, 2)
    benchmark.extra_info["events_per_sec"] = legacy_eps
    benchmark.extra_info["speedup"] = round(speedup, 2)

    # The fast path must preserve the simulated timeline bit-for-bit.
    assert duration == legacy_duration
