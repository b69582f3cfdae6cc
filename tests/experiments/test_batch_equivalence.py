"""The train's batched feeder on the campaign shape it was built for.

Campaign pods write 4 MB files, which fit the 80-packet data queue, so
every block takes the batched feeder: the whole already-produced chunk
prefix is consumed in one synchronous pass with zero heap events per
packet.  The per-packet loop (``coalesce_packets=1``) is the oracle —
the per-client timeline must be bit-identical while the heap traffic
drops.  The paper-shape runs (files larger than the queue, feeder off)
are pinned against the same oracle by ``test_train_equivalence.py``.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.workloads import campaign10k, run_pods_single_env


def test_campaign_timeline_identical_and_fewer_events():
    """The engaged path: on the campaign pod shape (whole file inside
    the data-queue bound) the batched feeder must retire packet traffic
    analytically — strictly fewer heap events — while the per-client
    timeline stays bit-identical."""
    plan = campaign10k(scale=0.02)
    batch = run_pods_single_env(plan, config=SimulationConfig())
    legacy = run_pods_single_env(
        plan, config=SimulationConfig().with_hdfs(coalesce_packets=1)
    )
    assert batch.timeline == legacy.timeline
    assert batch.fully_replicated and legacy.fully_replicated
    assert batch.bytes_moved == legacy.bytes_moved
    assert batch.events_processed < legacy.events_processed
