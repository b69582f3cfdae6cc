"""The train planners against their reference planners.

``PacketTrain`` plans a block write column by column, in windows of its
smallest buffer capacity, and ``ReadTrain`` plans a lone block read in
one pass with its quotes inlined; both keep each channel's ledger as
timeline columns.  ``reference_train.py`` keeps the row-wise write
planner verbatim, and a read train that plans a lone stream on the heap
of pending steps that streams beside each other share, one row per step;
each is plugged into the same conductor, milestones and settles.  Every
case runs twice, once per planner, on identically built deployments, and
requires, after every plan (the first and each replay):

* every timeline column;
* each channel's ``(issues, ends)`` ledger and its busy float;
* production's takes and ready times, and every rewind;

and at the end the settled state: responder, counters, flows, receivers,
channel floors and the journal.  The write cases cover 1 to 3 hops, 1 to
80 packets, per-hop capacities of 1, 4, 16 and beyond the block, fast and
gating production, and throttle changes, foreign quotes on guarded
channels and pipeline errors at random instants, some of them exactly on
a timeline value.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import SMALL, build_homogeneous
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment, HdfsReader
from repro.hdfs import train as train_module
from repro.hdfs.client.data_streamer import SOCKET_BUFFER
from repro.hdfs.client.output_stream import Production, plan_file
from repro.hdfs.client.responder import PacketResponder
from repro.hdfs.client.send import BlockProgress
from repro.hdfs.datanode import trigger_pipeline_error
from repro.hdfs.protocol import HdfsError
from repro.hdfs.train import PacketTrain, ReadTrain
from repro.net import FlowSample, FlowStats
from repro.net.throttle import NodeThrottle
from repro.sim import Environment
from repro.units import KB, MB, mbps

from .reference_train import RowWise, RowWisePacketTrain, RowWiseReadTrain

PACKET = 64 * KB
#: Per-hop buffer capacities in packets; 1024 exceeds every block here.
CAPS = (1, 4, 16, 1024)
#: Production rates: far above the 27 MB/s links, and below them.
PRODUCTION = {"fast": 400 * MB, "slow": 10 * MB}
KINDS = ("throttle", "unthrottle", "foreign", "error")


def _snapshot(train) -> dict:
    """Everything a plan computed, copied."""
    if isinstance(train, PacketTrain):
        names = ("_p", "_ee", "_ie", "_a", "_w", "_u", "_rel")
        columns = {n: [list(c) for c in getattr(train, n)] for n in names}
        columns["_g"] = list(train._g)
        production = train._production
        columns["taken"] = list(production._taken)
        columns["ready"] = list(production._ready)
    else:
        # A read stream's columns are its channels' ledgers.
        names = ("_di", "_d", "_m", "_e", "_i", "_x", "_Keff")
        return {
            "streams": [
                {n: copy(getattr(stream, n)) for n in names}
                for stream in train._streams
            ],
            "busy": list(train._busy),
            "now": train.env.now,
        }
    ledger = train._ledger
    columns["ledgers"] = [
        (list(ledger[id(ch)][0]), list(ledger[id(ch)][1])) for ch in train.channels
    ]
    columns["busy"] = (
        train.busy_floors() if isinstance(train, RowWise) else list(train._busy)
    )
    columns["now"] = train.env.now
    return columns


def _recording(base):
    """``base`` with every plan snapshotted into :attr:`plans`."""

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.plans: list[dict] = []

        def _rebuild_milestones(self):
            super()._rebuild_milestones()
            self.plans.append(_snapshot(self))

    return Recorded


COLUMN_WISE = {"write": _recording(PacketTrain), "read": _recording(ReadTrain)}
ROW_WISE = {
    "write": _recording(RowWisePacketTrain),
    "read": _recording(RowWiseReadTrain),
}


def _settled(deployment, env) -> dict:
    stats = deployment.network.stats
    nodes = [deployment.cluster.client_host] + [
        dn.node for dn in deployment.datanodes.values()
    ]
    return {
        "now": env.now,
        "nics": [(n.nic.bytes_sent, n.nic.bytes_received) for n in nodes],
        "disks": [(n.disk.bytes_written, n.disk.bytes_read) for n in nodes],
        "floors": [
            (n.nic.egress._busy_until, n.nic.ingress._busy_until,
             n.disk._channel._busy_until)
            for n in nodes
        ],
        "flows": (list(stats.samples), dict(stats._agg), len(stats)),
        "journal": [
            (e.time, e.kind, e.subject, sorted(e.details.items()))
            for e in deployment.journal.events()
        ],
    }


# -- block writes -------------------------------------------------------------
@dataclass(frozen=True)
class Disturbance:
    kind: str  # throttle | unthrottle | foreign | error
    #: When: this fraction of the undisturbed block's span after its
    #: start, or, with ``exact``, the timeline value it picks.
    at: float
    exact: bool
    #: Which node, channel or hop, and how hard.
    pick: int


@dataclass(frozen=True)
class WriteCase:
    hops: int
    packets: int
    short_tail: bool
    caps: tuple[int, ...]
    production: str
    #: A block before this one, taken by a slower consumer: the train's
    #: packets are numbered from a non-zero ``first``, and their ready
    #: times are held back by production's 80-slot queue bound.
    prior: bool
    disturbances: tuple[Disturbance, ...] = ()


class LoggedProduction(Production):
    """Production that logs every rewind."""

    def __init__(self, *args):
        super().__init__(*args)
        self.rewinds: list[int] = []

    def rewind(self, n: int) -> None:
        self.rewinds.append(n)
        super().rewind(n)


def _time(case: WriteCase, plan: dict, d: Disturbance) -> float:
    """The instant of ``d`` on the undisturbed block's ``plan``."""
    start, end = plan["_g"][0], plan["_u"][0][-1]
    if not d.exact:
        return start + d.at * (end - start)
    name = ("_g", "_p", "_a", "_w", "_u", "_rel")[d.pick % 6]
    column = plan[name] if name == "_g" else plan[name][d.pick % case.hops]
    return column[min(int(d.at * len(column)), len(column) - 1)]


def _disturb(env, deployment, train, handle, d: Disturbance, at: float):
    yield env.timeout_at(max(at, env.now))  # exactly ``at``: ties matter
    if d.kind == "throttle":
        hosts = [deployment.cluster.client_host] + [r.host for r in train.receivers]
        host = hosts[d.pick % len(hosts)]
        deployment.network.throttles.add(
            NodeThrottle(host.name, mbps(20 + 40 * (d.pick % 5)))
        )
    elif d.kind == "unthrottle":
        deployment.network.throttles.remove_matching(
            lambda rule: isinstance(rule, NodeThrottle)
        )
    elif d.kind == "foreign":
        channel = train.channels[d.pick % len(train.channels)]
        channel.quote((1 + d.pick % 3) * 128 * KB, 20 * MB)
    else:
        trigger_pipeline_error(handle.error, handle.targets[d.pick % len(handle.targets)])


def _write(case: WriteCase, train_cls, times=()) -> dict:
    """Plan and run one block write; returns what it observed."""
    env = Environment()
    size = case.packets * PACKET - (PACKET // 3 if case.short_tail else 0)
    config = SimulationConfig().with_hdfs(
        block_size=case.packets * PACKET,
        packet_size=PACKET,
        replication=case.hops,
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=4, config=config)
    deployment = HdfsDeployment(
        cluster, start_services=False, enable_replication_monitor=False
    )
    deployment.network.stats.keep_samples = True
    client = cluster.client_host
    namenode = deployment.namenode
    plans = plan_file(size + (case.packets * PACKET if case.prior else 0), config.hdfs)
    production = LoggedProduction(0.0, plans, PRODUCTION[case.production])
    if case.prior:
        # A consumer slower than production took the block before.
        last = 0.0
        for j in range(plans[0].n_packets):
            last = max(production.ready(j), 0.02 * j)
            production.take_at(j, last)
    plan = plans[-1]

    def setup(env):
        yield from namenode.create_file("client", "/t.bin")
        return (yield from namenode.add_block("client", "/t.bin", plan.size, excluded=set()))

    proc = env.process(setup(env))
    env.run(until=proc)
    if case.prior and last > env.now:
        env.run(until=last)
    result = proc.value
    handle = deployment.open_pipeline(
        result.block,
        result.targets,
        client,
        buffer_bytes=SOCKET_BUFFER,
    )
    responder = PacketResponder(env, result.block, handle.ack_in)
    progress = BlockProgress(plan, production)
    train = train_cls(deployment, client, handle, responder, progress)
    train._caps = list(case.caps)
    train.start()
    for d, at in zip(case.disturbances, times):
        env.process(_disturb(env, deployment, train, handle, d, at))
    env.run()
    observed = _settled(deployment, env)
    observed.update(
        plans=train.plans,
        rewinds=production.rewinds,
        taken=(progress.taken, train.sent_count),
        responder=(
            responder.acked_count,
            responder.acked_bytes,
            [p.seq for p in responder.ack_queue],
            responder.block_done.triggered,
        ),
        receivers=[(r.max_buffered, r._bytes_received) for r in train.receivers],
    )
    return observed


def _assert_same_write(case: WriteCase) -> list:
    """Run ``case`` on both planners; returns the column-wise plans."""
    undisturbed = _write(
        WriteCase(case.hops, case.packets, case.short_tail, case.caps,
                  case.production, case.prior),
        COLUMN_WISE["write"],
    )
    times = [_time(case, undisturbed["plans"][0], d) for d in case.disturbances]
    column_wise = _write(case, COLUMN_WISE["write"], times)
    row_wise = _write(case, ROW_WISE["write"], times)
    assert len(column_wise["plans"]) == len(row_wise["plans"])
    for index, (got, want) in enumerate(zip(column_wise["plans"], row_wise["plans"])):
        for key in want:
            assert got[key] == want[key], f"plan {index}: {key}"
    for key in row_wise:
        assert column_wise[key] == row_wise[key], key
    return column_wise["plans"]


disturbances = st.builds(
    Disturbance,
    kind=st.sampled_from(KINDS),
    at=st.floats(0.0, 0.95),
    exact=st.booleans(),
    pick=st.integers(0, 59),
)
write_cases = st.integers(1, 3).flatmap(
    lambda hops: st.builds(
        WriteCase,
        hops=st.just(hops),
        packets=st.integers(1, 80),
        short_tail=st.booleans(),
        caps=st.tuples(*[st.sampled_from(CAPS)] * hops),
        production=st.sampled_from(sorted(PRODUCTION)),
        prior=st.booleans(),
        disturbances=st.lists(disturbances, min_size=1, max_size=3).map(tuple),
    )
)


@settings(max_examples=100, deadline=None)
@given(write_cases)
@example(WriteCase(3, 16, False, (4, 4, 4), "fast", False,
                   (Disturbance("throttle", 0.3, False, 1),)))
@example(WriteCase(2, 80, True, (1, 16), "slow", True,
                   (Disturbance("foreign", 0.4, True, 3),
                    Disturbance("error", 0.7, False, 1))))
@example(WriteCase(3, 64, False, (1024, 16, 4), "fast", True,
                   (Disturbance("foreign", 0.5, True, 8),
                    Disturbance("throttle", 0.2, True, 2),
                    Disturbance("unthrottle", 0.6, False, 0))))
# Foreign quotes exactly at a disk issue and at a transfer issue: the
# quote issued at T is re-quoted, not frozen.
@example(WriteCase(1, 8, False, (4,), "fast", False,
                   (Disturbance("foreign", 0.5, True, 2),)))
@example(WriteCase(1, 8, False, (1,), "slow", False,
                   (Disturbance("foreign", 0.5, True, 1),)))
def test_write_planner_matches_row_wise(case):
    _assert_same_write(case)


def test_write_cases_replay_and_window():
    """The explicit cases do exercise replays under several windows."""
    case = WriteCase(3, 40, False, (4, 16, 1024), "fast", False,
                     (Disturbance("throttle", 0.25, False, 2),
                      Disturbance("foreign", 0.5, True, 4),
                      Disturbance("unthrottle", 0.75, False, 0)))
    plans = _assert_same_write(case)
    assert len(plans) == 4  # the first plan and three replays


# -- block reads --------------------------------------------------------------
@dataclass(frozen=True)
class ReadCase:
    seed: int
    chunks: int
    disturbances: tuple[Disturbance, ...] = ()


def _read(case: ReadCase, train_cls) -> dict:
    """Write a file, then read it back with ``train_cls`` as the read
    train, disturbing the newest live stream.

    Errors can kill every replica of a block; the reader then fails, and
    its outcome is the error's type and message instead of the result."""
    env = Environment()
    config = SimulationConfig(seed=case.seed).with_hdfs(
        block_size=16 * PACKET, packet_size=PACKET
    )
    cluster = build_homogeneous(env, SMALL, n_datanodes=5, config=config)
    deployment = HdfsDeployment(cluster, start_services=False)
    deployment.network.stats.keep_samples = True
    env.run(until=env.process(deployment.client().put("/f", case.chunks * PACKET)))
    trains, streams = [], []
    start = env.now

    class Tracked(train_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trains.append(self)

        def _join(self, stream):
            streams.append(stream)
            super()._join(stream)

    def disturb(d: Disturbance):
        # One block streams at about 16 x 64 KB / 27 MB/s = 39 ms.
        yield env.timeout(d.at * 0.04 * (1 + case.chunks // 16))
        live = [s for t in trains for s in t._streams]
        if not live:
            return
        stream = live[-1]
        source = stream.source.node
        if d.kind == "throttle":
            host = (source, stream.client_node)[d.pick % 2]
            deployment.network.throttles.add(
                NodeThrottle(host.name, mbps(20 + 40 * (d.pick % 5)))
            )
        elif d.kind == "unthrottle":
            deployment.network.throttles.remove_matching(
                lambda rule: isinstance(rule, NodeThrottle)
            )
        elif d.kind == "foreign":
            channels = (
                source.disk._channel,
                source.nic.egress,
                stream.client_node.nic.ingress,
            )
            channel = channels[d.pick % 3]
            channel.quote((1 + d.pick % 3) * 128 * KB, 20 * MB)
        else:
            stream.source.kill()

    with mock.patch.object(train_module, "ReadTrain", Tracked):
        for d in case.disturbances:
            env.process(disturb(d))
        reader = env.process(HdfsReader(deployment).get("/f"))
        try:
            result = env.run(until=reader)
        except HdfsError as error:
            outcome = (type(error).__name__, str(error))
        else:
            outcome = (result.duration, [tuple(b) for b in result.sources])
    observed = _settled(deployment, env)
    observed.update(
        start=start,
        plans=[t.plans for t in trains],
        result=outcome,
        outcomes=[(s.delivered_bytes, s.failed) for s in streams],
    )
    return observed


read_cases = st.builds(
    ReadCase,
    seed=st.integers(0, 1000),
    chunks=st.integers(1, 40),
    disturbances=st.lists(
        st.builds(
            Disturbance,
            kind=st.sampled_from(KINDS),
            at=st.floats(0.0, 1.0),
            exact=st.just(False),
            pick=st.integers(0, 59),
        ),
        max_size=3,
    ).map(tuple),
)


@settings(max_examples=30, deadline=None)
@given(read_cases)
@example(ReadCase(7, 16, (Disturbance("foreign", 0.3, False, 0),
                          Disturbance("throttle", 0.5, False, 1))))
@example(ReadCase(3, 33, (Disturbance("error", 0.4, False, 0),)))
# Three errors kill every replica: both planners must fail alike.
@example(ReadCase(0, 11, (Disturbance("error", 0.5, False, 0),
                          Disturbance("error", 0.75, False, 0),
                          Disturbance("error", 0.25, False, 0))))
def test_read_planner_matches_row_wise(case):
    column_wise = _read(case, COLUMN_WISE["read"])
    row_wise = _read(case, ROW_WISE["read"])
    assert len(column_wise["plans"]) == len(row_wise["plans"])
    for got, want in zip(column_wise["plans"], row_wise["plans"]):
        assert got == want
    for key in row_wise:
        assert column_wise[key] == row_wise[key], key


def test_read_cases_replay():
    """A foreign disk quote and a throttle make a read train replay."""
    case = ReadCase(7, 16, (Disturbance("foreign", 0.3, False, 0),
                            Disturbance("throttle", 0.5, False, 1)))
    plans = _read(case, COLUMN_WISE["read"])["plans"]
    assert max(len(p) for p in plans) >= 2


# -- flows in bulk ------------------------------------------------------------
runs = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["a", "b", "c"]),
        st.lists(
            st.tuples(
                st.integers(1, 1 << 20),
                st.floats(0, 1e4, allow_nan=False),
                st.floats(0, 10, allow_nan=False),
            ),
            max_size=12,
        ),
        st.integers(0, 14),
    ),
    max_size=6,
)


@pytest.mark.parametrize("keep", [False, True])
@settings(max_examples=50, deadline=None)
@given(runs=runs)
def test_record_run_equals_records(keep, runs):
    bulk, single = FlowStats(keep_samples=keep), FlowStats(keep_samples=keep)
    for src, dst, flows, n in runs:
        sizes = [size for size, _, _ in flows]
        starts = [start for _, start, _ in flows]
        ends = [start + length for _, start, length in flows]
        n = min(n, len(flows))
        bulk.record_run(src, dst, sizes, starts, ends, n)
        for k in range(n):
            single.record(FlowSample(src, dst, sizes[k], starts[k], ends[k]))
    assert bulk._agg == single._agg
    assert bulk.pairs() == single.pairs()
    assert len(bulk) == len(single)
    assert bulk.samples == single.samples
    assert bool(bulk.samples) == (keep and len(single) > 0)


# -- the analytic buffer high-water mark --------------------------------------
def _bisect_max_buffered(cap, grants, releases, rows, start):
    """One bisection per grant: the occupancy formula the walk replaced."""
    from bisect import bisect_left

    high = start
    for k in range(rows):
        high = max(high, min(cap, k + 1 - bisect_left(releases, grants[k])))
    return high


nondecreasing = st.lists(st.integers(0, 40), max_size=60).map(
    lambda steps: [sum(steps[: i + 1]) / 8 for i in range(len(steps))]
)


@settings(max_examples=200, deadline=None)
@given(
    hops=st.lists(
        st.tuples(
            st.sampled_from(CAPS), nondecreasing, nondecreasing,
            st.integers(0, 60), st.integers(0, 5),
        ),
        min_size=1,
        max_size=3,
    ),
    partial=st.booleans(),
)
def test_max_buffered_walk_equals_bisection(hops, partial):
    """``_apply_max_buffered`` merges the nondecreasing grant and release
    columns once per hop; it must give the per-grant bisection's high
    water marks, for whole columns and for settled prefixes, including
    releases that tie a grant (those do not count as freed)."""
    receivers = [mock.Mock(max_buffered=start) for *_, start in hops]
    stub = mock.Mock(
        receivers=receivers,
        _caps=[cap for cap, *_ in hops],
        _p=[grants for _, grants, *_ in hops],
        _rel=[releases for _, _, releases, *_ in hops],
    )
    upto = [min(rows, len(grants)) for _, grants, _, rows, _ in hops]
    PacketTrain._apply_max_buffered(stub, upto if partial else None)
    for receiver, (cap, grants, releases, rows, start), n in zip(
        receivers, hops, upto
    ):
        rows = n if partial else len(grants)
        assert receiver.max_buffered == _bisect_max_buffered(
            cap, grants, releases, rows, start
        )
