"""Fault injection, chaos campaigns and durability invariants."""

from .campaign import (
    ChaosSchedule,
    ChaosWorkload,
    FaultSpec,
    generate_read_schedule,
    generate_schedule,
    report_json,
    run_campaign,
    run_read_campaign,
    run_schedule,
)
from .injector import FaultEvent, FaultInjector
from .invariants import (
    INVARIANT_NAMES,
    READ_INVARIANT_NAMES,
    InvariantMonitor,
    InvariantRecord,
)

__all__ = [
    "FaultInjector",
    "FaultEvent",
    "FaultSpec",
    "ChaosWorkload",
    "ChaosSchedule",
    "generate_schedule",
    "generate_read_schedule",
    "run_schedule",
    "run_campaign",
    "run_read_campaign",
    "report_json",
    "InvariantMonitor",
    "InvariantRecord",
    "INVARIANT_NAMES",
    "READ_INVARIANT_NAMES",
]
