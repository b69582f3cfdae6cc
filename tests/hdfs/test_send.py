"""The write clients' one per-packet send (``repro.hdfs.client.send``)."""

import pytest

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.hdfs.client.output_stream import BlockPlan, Production
from repro.hdfs.client.responder import PacketResponder
from repro.hdfs.client.send import BlockProgress
from repro.hdfs.protocol import Block
from repro.sim import Environment, Resource
from repro.smarth import SmarthDeployment
from repro.smarth.pipeline import SmarthPipeline
from repro.units import KB

TARGETS = ("dn0", "dn1", "dn2")


@pytest.mark.parametrize("system", ["hdfs", "smarth"])
def test_send_on_failed_pipeline_commits_nothing(system):
    """A packet taken off the data queue after the pipeline's error was
    processed is not sent: no buffer token, no client NIC quote.  The
    packet was produced before the failure, so the take does not wait."""
    env = Environment()
    cfg = SimulationConfig().with_hdfs(packet_size=64 * KB, coalesce_packets=1)
    cluster = build_homogeneous(env, SMALL, n_datanodes=3, config=cfg)
    deployment = (HdfsDeployment if system == "hdfs" else SmarthDeployment)(
        cluster
    )
    client = deployment.client()
    plan = BlockPlan(index=0, size=64 * KB, packet_sizes=(64 * KB,))
    block = Block(1, "/f", 0, plan.size)
    handle = deployment.open_pipeline(block, TARGETS, client.node)
    responder = PacketResponder(env, block, handle.ack_in)

    deployment.datanode("dn1").kill()
    env.run(until=0.001)
    assert handle.error.processed

    production = Production(0.0, [plan], client.node.instance.production_rate)
    assert production.ready(0) < env.now
    progress = BlockProgress(plan, production)
    egress = client.node.nic.egress
    busy_before = egress.busy_until
    if system == "hdfs":
        loop = client._stream_block(handle, responder, progress)
    else:
        pipeline = SmarthPipeline(
            env, progress, block, TARGETS, Resource(env).request()
        )
        pipeline.bind(handle, responder)
        loop = client._send_seqs(pipeline)
    env.run(until=env.process(loop))

    assert progress.taken == 1
    assert egress.busy_until == busy_before
    assert handle.receivers[0].max_buffered == 0
