"""A finished upload's pipeline objects die by reference counting.

A service or a campaign pod runs thousands of uploads; what one leaves
behind must go when it finishes, not when the cyclic garbage collector
next runs a full collection.  With the collector off, the client's
:class:`SmarthPipeline`\\ s and every datanode's :class:`BlockReceiver`
of an upload must already be freed when the upload returns, on packet
trains and on the per-packet loops, under both protocols.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.hdfs.datanode import BlockReceiver
from repro.sim import Environment
from repro.smarth import SmarthDeployment
from repro.smarth.pipeline import SmarthPipeline
from repro.units import KB, MB


def _track(monkeypatch, cls, refs: list) -> None:
    init = cls.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(cls, "__init__", tracked)


@pytest.mark.parametrize("coalesce", [None, 1], ids=["trains", "per_packet"])
@pytest.mark.parametrize("deployment_cls", [SmarthDeployment, HdfsDeployment])
def test_finished_upload_leaves_no_cycle(monkeypatch, deployment_cls, coalesce):
    pipelines: list = []
    receivers: list = []
    _track(monkeypatch, SmarthPipeline, pipelines)
    _track(monkeypatch, BlockReceiver, receivers)
    hdfs = dict(block_size=2 * MB, packet_size=64 * KB)
    if coalesce is not None:
        hdfs["coalesce_packets"] = coalesce
    env = Environment()
    config = SimulationConfig().with_hdfs(**hdfs)
    cluster = build_homogeneous(env, SMALL, n_datanodes=9, config=config)
    deployment = deployment_cls(cluster)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = env.run(
            until=env.process(deployment.client().put("/f", 8 * MB))
        )
        alive = {
            "pipelines": sum(ref() is not None for ref in pipelines),
            "receivers": sum(ref() is not None for ref in receivers),
        }
    finally:
        if enabled:
            gc.enable()
    assert result.n_blocks == 4
    assert deployment.namenode.file_fully_replicated("/f")
    assert len(receivers) == 12
    assert len(pipelines) == (4 if deployment_cls is SmarthDeployment else 0)
    assert alive == {"pipelines": 0, "receivers": 0}
