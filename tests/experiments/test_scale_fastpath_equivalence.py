"""Equivalence of the cluster-scale fast paths at experiment scale.

The scale fast paths — the cached :class:`SpeedRegistry` ranking behind
``choose_targets`` and the lazy-cancellation tombstone scheduler — must
not move a single simulated timestamp.  This suite runs the same drivers
in *legacy mode* (the uncached reference registry plus the pre-tombstone
scheduler, where abandoned timers stay in the heap and fire stale) and
compares complete result tables, mirroring the train-vs-legacy suite.
"""

from __future__ import annotations

import json

from repro.experiments import ALL_EXPERIMENTS
from repro.faults.campaign import report_json, run_campaign
from repro.hdfs.namenode import Namenode, UncachedSpeedRegistry
from repro.sim import Event

SCALE = 0.25


def _never_cancel(_event: Event) -> None:
    """The pre-tombstone scheduler: an abandoned timer stays scheduled."""


def _legacy_mode(monkeypatch) -> None:
    """Pre-fast-path reference implementations, process-wide.

    Replacing :meth:`Event.cancel` with a no-op leaves every abandoned
    timer in the heap to fire stale, as before tombstones existed.
    :meth:`Request.cancel` overrides it to release a resource slot, so
    releases are unaffected.
    """
    monkeypatch.setattr(Event, "cancel", _never_cancel)
    monkeypatch.setattr(
        Namenode, "speed_registry_factory", UncachedSpeedRegistry
    )


def _normalized(result) -> dict:
    rows = [
        dict(zip(result.columns, row)) if not isinstance(row, dict) else row
        for row in result.rows
    ]
    return json.loads(
        json.dumps(
            {
                "rows": rows,
                "measured": {k: str(v) for k, v in result.measured.items()},
            },
            sort_keys=True,
        )
    )


def test_fig5_identical_fast_vs_legacy(monkeypatch):
    fast = _normalized(ALL_EXPERIMENTS["fig5"](scale=SCALE))
    _legacy_mode(monkeypatch)
    legacy = _normalized(ALL_EXPERIMENTS["fig5"](scale=SCALE))
    assert fast == legacy


def test_faultrec_identical_fast_vs_legacy(monkeypatch):
    fast = _normalized(ALL_EXPERIMENTS["faultrec"](scale=SCALE))
    _legacy_mode(monkeypatch)
    legacy = _normalized(ALL_EXPERIMENTS["faultrec"](scale=SCALE))
    assert fast == legacy


def test_chaos_report_identical_per_seed(monkeypatch):
    """A fixed-seed chaos campaign produces a byte-identical report with
    the fast paths on and in legacy mode (uncached registry + stale
    timers firing through the heap)."""
    fast = run_campaign(seed=11, runs=2, protocols=("hdfs", "smarth"), scale=0.1)
    _legacy_mode(monkeypatch)
    legacy = run_campaign(
        seed=11, runs=2, protocols=("hdfs", "smarth"), scale=0.1
    )
    assert report_json(fast) == report_json(legacy)
