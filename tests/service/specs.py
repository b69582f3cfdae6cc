"""Shared golden-run specs for the service checkpoint/resume tests.

One small-but-busy spec (12 tenants, 4 segments of 60 s) used by both
the pytest suite and ``regen_goldens.py``, so the pinned digests and the
assertions can never drift apart.
"""

from __future__ import annotations

import dataclasses

from repro.faults.campaign import FaultSpec
from repro.service import ServiceSpec

#: Interarrival compression: the default class mix is tuned for multi-hour
#: horizons; divide by this to make a 240 s golden run actually busy.
SPEEDUP = 100.0


def golden_spec(chaos: bool = False) -> ServiceSpec:
    spec = ServiceSpec.default(
        tenants=12,
        horizon=240.0,
        checkpoint_every=60.0,
        seed=20140901,
        n_datanodes=6,
        n_client_hosts=2,
        max_inflight=4,
        queue_limit=6,
        faults=chaos_faults() if chaos else (),
    )
    classes = tuple(
        dataclasses.replace(c, mean_interarrival=c.mean_interarrival / SPEEDUP)
        for c in spec.classes
    )
    return dataclasses.replace(spec, classes=classes)


def chaos_faults() -> tuple[FaultSpec, ...]:
    """A fixed chaos plan that straddles two barriers.

    The throttle window crosses the t=60 barrier; the kill/revive pair
    spans the t=120 barrier — both state kinds must survive a snapshot.
    """
    return (
        FaultSpec(kind="throttle", at=45.0, datanode="dn1", rate_mbps=1.0),
        FaultSpec(kind="unthrottle", at=75.0, datanode="dn1"),
        FaultSpec(kind="kill", at=100.0, datanode="dn2"),
        FaultSpec(kind="revive", at=130.0, datanode="dn2"),
    )
