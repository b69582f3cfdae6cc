"""Property test: traces are identical with and without packet trains.

The packet-train fast path (``coalesce_packets=0``) must emit exactly the
spans the legacy per-packet loop (``coalesce_packets=1``) emits — same
names, times, args — under randomized throttle/kill schedules.  Faults go
through :class:`FaultInjector`.  Trains do not decline a scheduled
disturbance: a throttle makes the train in flight replay its plan, a
kill settles it through the pipeline error, and a SMARTH train holds
mid-block for Algorithm 4's pause.  So every example compares trains
against the per-packet loop under the same faults, and the explicit
empty-schedule example covers the undisturbed upload.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig
from repro.faults.injector import FaultInjector
from repro.hdfs.deployment import HdfsDeployment
from repro.obs import check_wellformed, chrome_trace_json
from repro.smarth.deployment import SmarthDeployment
from repro.units import KB, MB
from repro.workloads.scenarios import two_rack

SIZE = 12 * MB
DATANODES = 6
DEADLINE = 120.0  # simulated seconds; ample for a 12 MB upload
_TIMES = [round(0.1 + 0.2 * i, 1) for i in range(10)]  # 0.1 .. 1.9 s

throttles = st.tuples(
    st.just("throttle"),
    st.sampled_from([f"dn{i}" for i in range(DATANODES)]),
    st.sampled_from([25.0, 50.0, 100.0]),
    st.sampled_from(_TIMES),
)
kills = st.tuples(
    st.just("kill_busy"),
    st.integers(min_value=0, max_value=2),
    st.just(None),
    st.sampled_from(_TIMES),
)
schedules = st.lists(st.one_of(throttles, kills), max_size=3)


def _apply(injector: FaultInjector, schedule) -> None:
    for kind, a, b, at in schedule:
        if kind == "throttle":
            injector.throttle_at(a, b, at=at)
        else:
            injector.kill_busy_at(at=at, pick=a)


def _defuse(event) -> None:
    if not event.ok:
        event.defuse()


def _traced_upload(system: str, coalesce: int, schedule, seed: int) -> str:
    config = SimulationConfig(seed=seed).with_hdfs(
        block_size=4 * MB, packet_size=256 * KB, coalesce_packets=coalesce
    )
    env, cluster = two_rack("small", n_datanodes=DATANODES).make(config)
    deployment = (
        SmarthDeployment(cluster, observe=True)
        if system == "smarth"
        else HdfsDeployment(cluster, observe=True)
    )
    _apply(FaultInjector(deployment), schedule)
    client = deployment.client()
    proc = env.process(client.put("/eq/file.bin", SIZE), name="eq:put")
    proc.callbacks.append(_defuse)
    env.run(until=DEADLINE)
    # Failed/hung uploads still produce comparable (partial) traces.
    check_wellformed(deployment.tracer, allow_open=True)
    return chrome_trace_json(deployment.tracer)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(schedule=schedules, seed=st.integers(min_value=0, max_value=7))
@example(schedule=[], seed=0)  # pure train path vs pure legacy loop
@example(schedule=[("kill_busy", 1, None, 0.5)], seed=3)
def test_trace_identical_across_coalesce_modes(schedule, seed) -> None:
    for system in ("hdfs", "smarth"):
        fast = _traced_upload(system, 0, schedule, seed)
        legacy = _traced_upload(system, 1, schedule, seed)
        assert fast == legacy, (
            f"{system} trace differs between train and per-packet modes "
            f"for schedule={schedule} seed={seed}"
        )
