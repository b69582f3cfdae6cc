"""Unit + acceptance tests for the ingest service building blocks."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.analysis import trace as trace_module
from repro.faults.campaign import FaultSpec
from repro.hdfs import DatanodeDescriptor
from repro.obs import MetricsRegistry
from repro.service import (
    IngestService,
    MergedArrivals,
    ServiceSpec,
    TenantClassSpec,
    generate_service_faults,
    load_snapshot,
    save_snapshot,
    slo_table,
)
from repro.service.slo import class_latency, class_violations, tenant_latency
from repro.sim import SnapshotError

from .specs import golden_spec

CLASSES = (
    TenantClassSpec("fast", 4, 10.0, 1024, 5.0, diurnal_amplitude=0.5),
    TenantClassSpec("slow", 2, 40.0, 4096, 20.0),
)


# ---------------------------------------------------------------------------
# Arrivals
# ---------------------------------------------------------------------------
def _take(merged: MergedArrivals, n: int):
    return [merged.pop() for _ in range(n)]


def test_arrivals_deterministic_per_seed():
    a = _take(MergedArrivals(CLASSES, seed=7), 50)
    b = _take(MergedArrivals(CLASSES, seed=7), 50)
    c = _take(MergedArrivals(CLASSES, seed=8), 50)
    assert a == b
    assert a != c


def test_arrivals_merge_is_time_ordered():
    arrivals = _take(MergedArrivals(CLASSES, seed=3), 80)
    times = [a.at for a in arrivals]
    assert times == sorted(times)
    assert {a.cls for a in arrivals} == {"fast", "slow"}
    # Tenant indices are globally unique across classes.
    fast = {a.tenant_index for a in arrivals if a.cls == "fast"}
    slow = {a.tenant_index for a in arrivals if a.cls == "slow"}
    assert fast <= set(range(0, 4))
    assert slow <= set(range(4, 6))
    assert not fast & slow


def test_arrivals_seq_is_per_tenant_and_unique():
    arrivals = _take(MergedArrivals(CLASSES, seed=11), 120)
    keys = [(a.tenant, a.seq) for a in arrivals]
    assert len(set(keys)) == len(keys)
    for tenant in {a.tenant for a in arrivals}:
        seqs = [a.seq for a in arrivals if a.tenant == tenant]
        assert seqs == list(range(len(seqs)))


def test_arrivals_export_restore_resumes_identically():
    """A snapshot exports the streams by pickling them whole and
    restores them by unpickling."""
    reference = MergedArrivals(CLASSES, seed=5)
    prefix = _take(reference, 30)

    replay = MergedArrivals(CLASSES, seed=5)
    assert _take(replay, 12) == prefix[:12]
    resumed = pickle.loads(pickle.dumps(replay))
    assert _take(resumed, 18) == prefix[12:]
    assert resumed.total == reference.total


def test_diurnal_rate_shape():
    spec = CLASSES[0]
    assert spec.base_rate == pytest.approx(0.4)
    assert spec.peak_rate == pytest.approx(0.6)
    assert spec.rate_at(0.0) == pytest.approx(spec.base_rate)
    assert spec.rate_at(spec.diurnal_period / 4) == pytest.approx(spec.peak_rate)
    flat = CLASSES[1]
    assert flat.rate_at(12345.0) == pytest.approx(flat.base_rate)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tenants": 0},
        {"mean_interarrival": 0.0},
        {"size": 0},
        {"slo": 0.0},
        {"diurnal_amplitude": 1.0},
        {"diurnal_period": 0.0},
    ],
)
def test_tenant_class_validation(kwargs):
    base = dict(
        name="x", tenants=1, mean_interarrival=1.0, size=1, slo=1.0
    )
    base.update(kwargs)
    with pytest.raises(ValueError):
        TenantClassSpec(**base)


# ---------------------------------------------------------------------------
# Spec / snapshot plumbing
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"classes": ()},
        {"horizon": 0.0},
        {"checkpoint_every": 0.0},
        {"protocol": "nfs"},
        {"horizon": -5.0},
        {"n_client_hosts": 0},
    ],
)
def test_service_spec_validation(kwargs):
    base = dict(classes=CLASSES, horizon=100.0, checkpoint_every=50.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ServiceSpec(**base)


def test_default_spec_partitions_tenants():
    spec = ServiceSpec.default(tenants=500)
    assert spec.total_tenants == 500
    assert [c.name for c in spec.classes] == ["interactive", "batch", "bulk"]
    assert spec.classes[0].diurnal_amplitude > 0


def test_snapshot_rejects_garbage(tmp_path, monkeypatch):
    missing = tmp_path / "nope.pkl"
    with pytest.raises(SnapshotError):
        load_snapshot(missing)

    junk = tmp_path / "junk.pkl"
    junk.write_bytes(b"not a pickle at all")
    with pytest.raises(SnapshotError):
        load_snapshot(junk)

    wrong_format = tmp_path / "fmt.pkl"
    wrong_format.write_bytes(pickle.dumps({"format": "something-else"}))
    with pytest.raises(SnapshotError):
        load_snapshot(wrong_format)

    future = tmp_path / "future.pkl"
    future.write_bytes(
        pickle.dumps(
            {"format": "repro-service-snapshot", "version": 99, "state": {}}
        )
    )
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(future)

    # Version 1 predates the removal of ServiceSpec.shards: its pickled
    # spec still carries the attribute, and this build must refuse it.
    old_spec = golden_spec()
    object.__setattr__(old_spec, "shards", 2)
    v1 = tmp_path / "v1.pkl"
    v1.write_bytes(
        pickle.dumps(
            {
                "format": "repro-service-snapshot",
                "version": 1,
                "state": {"spec": old_spec},
            }
        )
    )
    with pytest.raises(SnapshotError, match="version 1 "):
        load_snapshot(v1)

    # Versions 2 and 3 predate the removal of datanode descriptor fields
    # their pickled descriptors still carry (v2: decommissioning's two
    # drain flags; v3: active_streams), which this build's
    # DatanodeDescriptor cannot take back, so it must refuse them.
    for version, fields in (
        (2, {"decommissioning": False, "decommissioned": False}),
        (3, {"active_streams": 0}),
    ):
        old_descriptor = DatanodeDescriptor("dn0", "rack0")
        vars(old_descriptor).update(fields)
        with pytest.raises(TypeError):
            DatanodeDescriptor(**vars(old_descriptor))
        old = tmp_path / f"v{version}.pkl"
        old.write_bytes(
            pickle.dumps(
                {
                    "format": "repro-service-snapshot",
                    "version": version,
                    "state": {"datanodes": {"datanodes": {"dn0": old_descriptor}}},
                }
            )
        )
        with pytest.raises(SnapshotError, match=f"version {version} "):
            load_snapshot(old)

    # Version 4 predates slotted journal events: it pickled each event as
    # a frozen dataclass and its ``__dict__``, which this build's
    # TraceEvent has no room for, so the file does not even unpickle.
    @dataclasses.dataclass(frozen=True)
    class V4Event:
        time: float
        kind: str
        subject: str
        details: dict

    V4Event.__module__ = trace_module.__name__
    V4Event.__qualname__ = "TraceEvent"
    event = V4Event(1.0, "add_block", "/f", {"block": 1000})
    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "TraceEvent", V4Event)
        v4_bytes = pickle.dumps(
            {
                "format": "repro-service-snapshot",
                "version": 4,
                "state": {"journal": [event]},
            }
        )
    v4 = tmp_path / "v4.pkl"
    v4.write_bytes(v4_bytes)
    with pytest.raises(SnapshotError, match="cannot read snapshot"):
        load_snapshot(v4)

    # Version 5 held plain state copied out of each component, which
    # this build no longer replays into a fresh deployment.
    v5 = tmp_path / "v5.pkl"
    v5.write_bytes(
        pickle.dumps(
            {
                "format": "repro-service-snapshot",
                "version": 5,
                "state": {"spec": golden_spec(), "clock": {"now": 60.0}},
            }
        )
    )
    with pytest.raises(SnapshotError, match="version 5 "):
        load_snapshot(v5)

    # A current file that holds no service does not resume.
    empty = tmp_path / "empty.pkl"
    empty.write_bytes(
        pickle.dumps(
            {"format": "repro-service-snapshot", "version": 6, "service": {}}
        )
    )
    with pytest.raises(SnapshotError, match="holds no IngestService"):
        IngestService.resume(empty)


def test_snapshot_round_trip(tmp_path):
    path = tmp_path / "ok.pkl"
    save_snapshot(path, IngestService(golden_spec()))
    service = load_snapshot(path)
    assert isinstance(service, IngestService)
    assert service.spec == golden_spec()
    assert service.env.now == 0.0


def test_generate_service_faults_is_deterministic():
    a = generate_service_faults(1, 6, 86400.0)
    b = generate_service_faults(1, 6, 86400.0)
    c = generate_service_faults(2, 6, 86400.0)
    assert a == b
    assert a != c
    assert list(a) == sorted(a, key=lambda f: (f.at, f.kind, f.datanode or ""))
    assert all(0 < f.at < 86400.0 for f in a)
    kinds = {f.kind for f in generate_service_faults(1, 6, 30 * 86400.0)}
    assert kinds <= {"throttle", "unthrottle", "kill", "revive"}
    assert "throttle" in kinds


# ---------------------------------------------------------------------------
# SLO table
# ---------------------------------------------------------------------------
def test_slo_table_renders_classes_and_worst_tenants():
    metrics = MetricsRegistry(enabled=True)
    for latency in (1.0, 2.0, 30.0):
        metrics.observe(class_latency("fast"), latency)
        if latency > CLASSES[0].slo:
            metrics.count(class_violations("fast"))
    metrics.observe(tenant_latency("fast", "fast-0001"), 30.0)
    metrics.observe(tenant_latency("fast", "fast-0000"), 1.0)

    table = slo_table(metrics, CLASSES)
    lines = table.splitlines()
    assert lines[0].split() == [
        "class", "count", "p50", "p95", "p99", "slo", "violations",
    ]
    fast_row = next(l for l in lines if l.startswith("fast"))
    assert fast_row.split()[1] == "3"
    assert fast_row.split()[-1] == "1"
    slow_row = next(l for l in lines if l.startswith("slow"))
    assert slow_row.split()[1] == "0"
    assert "worst tenants by p99 (top 2 of 2)" in table
    # Worst tenant sorts first.
    assert table.index("fast-0001") < table.index("fast-0000")
    # Byte determinism: rendering twice gives identical text.
    assert slo_table(metrics, CLASSES) == table


# ---------------------------------------------------------------------------
# Acceptance: 500 tenants over a multi-day horizon with backpressure
# ---------------------------------------------------------------------------
def _acceptance_spec() -> ServiceSpec:
    """500 tenants, 48 simulated hours, with a morning-peak brownout.

    All six datanodes are throttled to 0.05 Mbps across the interactive
    diurnal peak, so the bounded queue overflows and admission control
    must actually reject work (nonzero backpressure is asserted below).
    """
    faults = []
    for i in range(6):
        faults.append(
            FaultSpec(kind="throttle", at=18000.0, datanode=f"dn{i}",
                      rate_mbps=0.05)
        )
        faults.append(
            FaultSpec(kind="unthrottle", at=26000.0, datanode=f"dn{i}")
        )
    spec = ServiceSpec.default(
        tenants=500,
        horizon=48 * 3600.0,
        checkpoint_every=6 * 3600.0,
        heartbeat_interval=60.0,
        dead_node_heartbeats=30,
        max_inflight=2,
        queue_limit=3,
        faults=tuple(faults),
    )
    classes = tuple(
        dataclasses.replace(c, mean_interarrival=c.mean_interarrival * 2)
        for c in spec.classes
    )
    return dataclasses.replace(spec, classes=classes)


def test_service_sustains_500_tenants_with_backpressure():
    report = IngestService(_acceptance_spec()).run()
    counts = report.counts

    assert counts["tenants"] == 500
    assert counts["segments"] == 8
    assert counts["final_time"] > 40 * 3600.0
    assert counts["arrivals"] > 3000

    # Admission control engaged: the queue hit its bound and rejections
    # were journaled — while the bounds themselves were never exceeded.
    assert counts["rejected"] > 0
    assert counts["max_queue_depth"] == 3
    assert counts["queue_bounded"]
    assert counts["inflight_bounded"]
    assert counts["conservation_ok"]
    assert '"kind": "service_reject"' in report.journal_text

    # Per-tenant p99s come straight from the obs histograms.
    assert "worst tenants by p99" in report.slo_text
    for cls in ("interactive", "batch", "bulk"):
        assert report.classes[cls]["completed"] > 0
        assert report.classes[cls]["p99"] >= report.classes[cls]["p50"]
    # The brownout pushed interactive uploads past their SLO.
    assert report.classes["interactive"]["violations"] > 0
    total_rejected = sum(c["rejected"] for c in report.classes.values())
    assert total_rejected == counts["rejected"]
