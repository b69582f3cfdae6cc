"""Checks on the ledger itself: the layer map, the attribution, the probes,
and the part-by-part, host-scaled timing of ``wall_s``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger``.  Each
workload runs as a tiny instance (module constants shrunk), so the whole
file takes seconds.
"""

from __future__ import annotations

import pytest

import host
import layers
import run as runner
import workloads
from repro.hdfs import train
from repro.hdfs.client import data_streamer, input_stream
from repro.sim import Environment
from repro.smarth import multi_writer

TINY = {
    "PAPER_SCALE": 0.01,
    "CAMPAIGN_SCALE": 0.01,
    "SERVICE_HORIZON": 120.0,
    "SERVICE_BARRIER": 60.0,
    "CHAOS_RUNS": 1,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(
        path.relative_to(layers.PACKAGE_DIR).as_posix()
        for path in layers.PACKAGE_DIR.rglob("*.py")
    )
    assert modules
    mapped = {module: layers.layer_of(module) for module in modules}
    assert set(mapped.values()) == set(layers.LAYERS)  # no layer left empty
    assert mapped["hdfs/train.py"] == "hdfs.train"
    assert mapped["hdfs/client/send.py"] == "hdfs.client"
    assert mapped["hdfs/placement.py"] == "hdfs.namenode"
    assert mapped["hdfs/deployment.py"] == "hdfs.datanode"
    assert mapped["analysis/trace.py"] == "obs"
    assert mapped["analysis/metrics.py"] == "driver"
    assert mapped["rng.py"] == "driver"


def test_layer_self_times_sum_to_the_profile_total(tiny):
    setup, run = workloads.WORKLOADS["campaign"]
    _outcome, ledger = layers.profiled(run, setup(7))
    total = ledger["total_s"]
    attributed = sum(ledger["self_s"].values())
    assert attributed + ledger["unattributed_s"] == pytest.approx(total)
    assert attributed == pytest.approx(total, rel=0.01)
    assert ledger["unattributed_s"] / total < 0.02
    assert ledger["self_s"]["hdfs.train"] > 0
    assert ledger["calls"]["hdfs.namenode.add_block"] == 100
    assert ledger["probes"]["hdfs.train.write_coverage"] == 1.0


def test_partwise_median_skips_bursts_that_hit_different_parts():
    parts = [[1.0, 2.0], [1.0, 2.0], [3.0, 2.0], [1.0, 5.0]]
    median, q1, q3 = runner.partwise(parts)
    assert median == pytest.approx(3.0)  # the median of whole reps is 4.0
    assert q1 <= median <= q3
    with pytest.raises(runner.RepFailed):
        runner.partwise([[1.0, 2.0], [3.0]])


def test_host_times_scale_by_the_reference_kernel():
    rep = {"reference_s": [2 * host.REFERENCE_S] * 3}
    assert runner.host_scale([rep, rep]) == pytest.approx(0.5)
    assert host.kernel(tasks=3, steps=2) == 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runs_lap_the_same_parts_whatever_the_seed(tiny, name):
    # run.partwise lines reps up part by part, so the laps must not vary.
    setup, run = workloads.WORKLOADS[name]
    laps = []
    for seed in (3, 4):
        count = []
        run(setup(seed), lambda: count.append(None))
        laps.append(len(count))
    assert laps[0] == laps[1] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_probes_are_passive_and_removed(tiny, name):
    setup, run = workloads.WORKLOADS[name]
    env_run = Environment.run
    plain = run(setup(11)).digest()
    probed, ledger = layers.profiled(run, setup(11))
    assert probed.digest() == plain
    assert data_streamer.plan_train is train.plan_train
    assert multi_writer.plan_train is train.plan_train
    assert input_stream.plan_read_train is train.plan_read_train
    assert Environment.run is env_run
    offered = sum(
        ledger["probes"][f"hdfs.train.{kind}_{outcome}"]
        for kind in ("write", "read")
        for outcome in ("planned", "declined")
    )
    assert offered > 0
