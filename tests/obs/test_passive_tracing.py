"""Tracing is passive: turning ``observe`` on schedules nothing.

The tracer and the metrics registry record what the protocol does and
own no state it reads back, so a traced run must take the same simulated
time *and* the same heap events as an untraced one.  The shape is the
kernel benchmark's pipeline (a baseline-HDFS client, 9 ``SMALL``
datanodes, 32 MB blocks, 64 KB packets), here at 64 MB, with packet
trains and on the per-packet loop.
"""

from __future__ import annotations

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsClient, HdfsDeployment
from repro.sim import Environment
from repro.units import KB, MB


def _upload(observe: bool, coalesce: int):
    """One 64 MB upload; returns (duration, heap events, deployment)."""
    config = SimulationConfig().with_hdfs(
        block_size=32 * MB, packet_size=64 * KB, coalesce_packets=coalesce
    )
    env = Environment()
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = HdfsDeployment(cluster, observe=observe)
    client = HdfsClient(deployment)
    result = env.run(until=env.process(client.put("/obs/passive.bin", 64 * MB)))
    return result.duration, env.events_processed, deployment


@pytest.mark.parametrize("coalesce", [0, 1], ids=["trains", "per-packet"])
def test_tracing_schedules_nothing(coalesce: int) -> None:
    duration_off, events_off, _ = _upload(False, coalesce)
    duration_on, events_on, deployment = _upload(True, coalesce)
    assert duration_on == duration_off
    assert events_on == events_off
    # The traced run did record the upload.
    assert deployment.metrics.counter_value("blocks_total") == 2
    assert len(deployment.tracer) > 0
