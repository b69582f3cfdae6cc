"""Quiet simulated time costs no events.

Datanode heartbeats are analytic beat chains, the liveness monitor arms
a tick only where a datanode expires, and the replication monitor sleeps
after an idle scan.  An idle deployment therefore runs its schedule dry
instead of ticking forever, and a process blocked forever is reported as
the kernel's "schedule ran dry" error instead of spinning heartbeats.  A
live SMARTH client's speed reporter still ticks: it carries Algorithm
1's records.
"""

import pytest

from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment
from repro.smarth import SmarthDeployment
from repro.workloads import two_rack


@pytest.mark.parametrize(
    "deploy", [HdfsDeployment, SmarthDeployment], ids=["hdfs", "smarth"]
)
def test_idle_deployment_runs_dry(deploy):
    env, cluster = two_rack("small").make(SimulationConfig())
    deploy(cluster)
    env.run(until=3600)
    # The liveness monitor's start, the replication monitor's start and
    # its one idle scan, and the stop timer of run(until=3600).
    assert env.events_processed == 4
    assert len(env) == 0
    env.run()
    assert env.now == 3600

    blocked = env.process(_wait_forever(env))
    with pytest.raises(RuntimeError, match="schedule ran dry"):
        env.run(until=blocked)


def _wait_forever(env):
    yield env.event()
