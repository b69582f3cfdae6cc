"""Packet trains on the campaign shape, against the per-packet loop.

Campaign pods write 4 MB files: each block goes as one packet train that
plans its whole timeline at start, production included (the train takes
each packet analytically from the file's production recurrence), and
costs a handful of milestones instead of events per packet.  The
per-packet loop (``coalesce_packets=1``) is the oracle — the per-client
timeline must be bit-identical while the heap traffic drops.  The
paper-shape runs (files larger than the 80-packet data queue) are pinned
against the same oracle by ``test_train_equivalence.py``.
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.workloads import campaign10k, run_pods_single_env

#: Exact heap events of ``campaign10k(scale=0.02)``: with trains (the
#: default) and on the per-packet loop.  Both counts are deterministic;
#: a change that moves them moves them on purpose.
TRAIN_EVENTS = 5_838
PER_PACKET_EVENTS = 236_638


def test_campaign_timeline_identical_and_fewer_events():
    """On the campaign pod shape the trains retire the packet traffic
    analytically — exactly the pinned heap events — while the
    per-client timeline stays bit-identical.  This is the
    ``campaign.campaign10k`` event-reduction floor's home: the trains
    retire at least 20x of the per-packet heap events (40.53x)."""
    plan = campaign10k(scale=0.02)
    batch = run_pods_single_env(plan, config=SimulationConfig())
    legacy = run_pods_single_env(
        plan, config=SimulationConfig().with_hdfs(coalesce_packets=1)
    )
    assert batch.timeline == legacy.timeline
    assert batch.fully_replicated and legacy.fully_replicated
    assert batch.bytes_moved == legacy.bytes_moved
    assert batch.events_processed == TRAIN_EVENTS
    assert legacy.events_processed == PER_PACKET_EVENTS
    assert legacy.events_processed >= 20 * batch.events_processed
