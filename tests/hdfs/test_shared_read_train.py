"""Read trains under kills and beside each other, against the per-chunk loop.

One :class:`~repro.hdfs.train.ReadTrain` conducts every coalesced
stream into a reader host, and settles a stream whose source died where
the per-chunk loop notices it: at the landing of the first chunk still
in flight when the kill came.  ``coalesce_reads=1`` runs the per-chunk
loops, the oracle.  Every case here runs in both modes and requires the
same read durations and sources, journal, NIC and disk counters, and
flows (samples kept).

The explicit tests pin the three kill cases (exactly at a landing,
during the last chunk, while the loop waits on its disk read) and a join
at exactly a neighbour's step.  The Hypothesis sweep runs 1-4 readers on
one host with random staggers and serve slots, kills at random instants
and on a pilot run's landings, in-flight chunks and disk waits, throttle
changes and re-replications reading a source; a killed stream resumes on
another replica at its delivered offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import SMALL, build_homogeneous
from repro.cluster.instance import with_storage
from repro.config import SimulationConfig
from repro.hdfs import HdfsDeployment, HdfsReader, copy_block
from repro.hdfs.train import ReadTrain
from repro.net.throttle import NodeThrottle
from repro.sim import Environment
from repro.units import KB, mbps

PACKET = 64 * KB
BLOCK = 16 * PACKET


@dataclass(frozen=True)
class Fault:
    """One disturbance of the read phase.

    ``kill``, ``throttle``, ``unthrottle`` and ``copy`` (a re-replication
    of a block from one of its holders, a foreign quote on a source's
    disk and egress) land ``at`` this fraction of the read phase's first
    0.15 s.  ``landing``, ``flight`` and ``disk``
    kill the source of a chunk the pilot run (the per-chunk loops with
    every other fault) streamed: exactly at its landing, halfway through
    its transfer, or just before its transfer began (while the loop
    waits on that chunk's disk read).  ``pick`` chooses the datanode,
    rate or chunk.
    """

    kind: str
    at: float
    pick: int


EXACT = ("landing", "flight", "disk")


@dataclass(frozen=True)
class Case:
    seed: int
    n_datanodes: int
    size: int
    #: Start offset of each reader (s); every reader is on the client host.
    staggers: tuple[float, ...]
    serve_streams: int
    slow_disk: bool
    faults: tuple[Fault, ...] = ()


def _deployment(case: Case, coalesce: int):
    env = Environment()
    config = SimulationConfig(seed=case.seed).with_hdfs(
        block_size=BLOCK,
        packet_size=PACKET,
        serve_streams=case.serve_streams,
        coalesce_reads=coalesce,
    )
    instance = with_storage(SMALL, "hdd-slow") if case.slow_disk else SMALL
    cluster = build_homogeneous(
        env, instance, n_datanodes=case.n_datanodes, config=config
    )
    deployment = HdfsDeployment(cluster, start_services=False)
    deployment.network.stats.keep_samples = True
    env.run(until=env.process(deployment.client().put("/f", case.size)))
    return env, deployment


def _read_flows(deployment, start: float) -> list:
    client = deployment.cluster.client_host.name
    return [
        s for s in deployment.network.stats.samples
        if s.dst == client and s.start >= start
    ]


def _schedule(env, deployment, start: float, faults, pilot_flows) -> None:
    """Arm every fault as a timed callback created before the reads
    start, so a kill is an older event than any chunk timer of its
    instant (as an injector's kill is)."""
    names = sorted(deployment.datanodes)
    killed: list[str] = []

    def kill(name: str, at: float) -> None:
        if name in killed or len(killed) >= 2:
            return  # at most replication - 1 kills: every block stays readable
        killed.append(name)
        datanode = deployment.datanode(name)
        env.call_at(at, lambda _e: datanode.node.alive and datanode.kill())

    throttles = deployment.network.throttles
    for fault in faults:
        if fault.kind in EXACT:
            flow = pilot_flows[fault.pick % len(pilot_flows)]
            at = {
                "landing": flow.end,
                "flight": (flow.start + flow.end) / 2,
                "disk": math.nextafter(flow.start, 0.0),
            }[fault.kind]
            if at > env.now:
                kill(flow.src, at)
            continue
        at = start + 0.15 * fault.at
        if fault.kind == "kill":
            kill(names[fault.pick % len(names)], at)
        elif fault.kind == "throttle":
            host = (names + [deployment.cluster.client_host.name])[
                fault.pick % (len(names) + 1)
            ]
            rule = NodeThrottle(host, mbps(20 + 40 * (fault.pick % 5)))
            env.call_at(at, lambda _e, rule=rule: throttles.add(rule))
        elif fault.kind == "unthrottle":
            env.call_at(
                at,
                lambda _e: throttles.remove_matching(
                    lambda rule: isinstance(rule, NodeThrottle)
                ),
            )
        else:
            blocks = deployment.namenode.namespace.get("/f").blocks
            block = blocks[fault.pick % len(blocks)].block_id
            holders = deployment.namenode.blocks.locations(block)
            target = next(n for n in names if n not in holders)
            copy = copy_block(
                deployment, block, holders[fault.pick % len(holders)], target
            )
            env.call_at(at, lambda _e, copy=copy: env.process(copy))


def observe(case: Case, coalesce: int, pilot_flows=()) -> dict:
    """Run the case's reads in one mode; return everything observable."""
    env, deployment = _deployment(case, coalesce)
    start = env.now
    faults = [f for f in case.faults if pilot_flows or f.kind not in EXACT]
    _schedule(env, deployment, start, faults, pilot_flows)

    def read(i: int, delay: float):
        if delay:
            yield env.timeout(delay)
        result = yield env.process(
            HdfsReader(deployment, name=f"reader{i}").get("/f")
        )
        return result

    readers = [
        env.process(read(i, delay)) for i, delay in enumerate(case.staggers)
    ]
    env.run(until=env.all_of(readers))
    nodes = sorted(
        deployment.cluster.datanode_hosts + [deployment.cluster.client_host],
        key=lambda n: n.name,
    )
    return {
        "reads": [
            (r.value.duration, tuple(r.value.sources)) for r in readers
        ],
        "journal": [
            (e.time, e.kind, e.subject, sorted(e.details.items()))
            for e in deployment.journal.events()
        ],
        "nic": [(n.name, n.nic.bytes_sent, n.nic.bytes_received) for n in nodes],
        "disk": [(n.name, n.disk.bytes_read, n.disk.bytes_written) for n in nodes],
        "flows": sorted(
            _read_flows(deployment, start),
            key=lambda s: (s.start, s.end, s.src, s.dst, s.size),
        ),
        "trains_left": dict(deployment.read_trains),
    }


def assert_equivalent(case: Case) -> dict:
    pilot = ()
    if any(f.kind in EXACT for f in case.faults):
        pilot = observe(case, coalesce=1)["flows"]
    legacy = observe(case, coalesce=1, pilot_flows=pilot)
    trains = observe(case, coalesce=0, pilot_flows=pilot)
    for key in legacy:
        assert trains[key] == legacy[key], f"{key} diverges"
    return trains


def _one_stream_flows(case: Case) -> list:
    """The per-chunk flows of an undisturbed single-reader case."""
    return observe(case, coalesce=1)["flows"]


# -- the three kill cases of a lone stream --------------------------------
LONE = Case(seed=3, n_datanodes=5, size=BLOCK, staggers=(0.0,),
            serve_streams=4, slow_disk=False)


def _kill_case(kind: str, pick: int, case: Case = LONE) -> Case:
    return replace(case, faults=(Fault(kind, 0.0, pick),))


def test_kill_at_a_landing_fails_after_that_chunk():
    """A kill at exactly chunk k's landing is noticed there: chunks 0..k
    are delivered and the reader resumes at that offset elsewhere."""
    flows = _one_stream_flows(LONE)
    k = 5
    seen = assert_equivalent(_kill_case("landing", k))
    first, second = seen["flows"][: k + 1], seen["flows"][k + 1 :]
    assert [f.end for f in first] == [f.end for f in flows[: k + 1]]
    assert {f.src for f in first} == {flows[0].src}
    assert flows[0].src not in {f.src for f in second}
    assert sum(f.size for f in second) == BLOCK - (k + 1) * PACKET
    (_, sources), = seen["reads"]
    assert sources[0][1] != flows[0].src


def test_kill_during_the_last_chunk_fails_nothing():
    """The loop exits after the last chunk without checking again, so a
    kill while it is in flight leaves the stream complete."""
    flows = _one_stream_flows(LONE)
    seen = assert_equivalent(_kill_case("flight", len(flows) - 1))
    assert seen["flows"] == flows
    (_, sources), = seen["reads"]
    assert sources[0][1] == flows[0].src


def test_kill_while_waiting_on_the_disk_delivers_that_chunk():
    """A kill while the loop waits on chunk k's disk read is noticed only
    after chunk k lands: the read resolves, the chunk streams."""
    case = replace(LONE, slow_disk=True)
    flows = _one_stream_flows(case)
    k = 4
    assert flows[k].start > flows[k - 1].end  # the loop waited on the disk
    seen = assert_equivalent(_kill_case("disk", k, case))
    assert [f.end for f in seen["flows"][: k + 1]] == [
        f.end for f in flows[: k + 1]
    ]
    assert flows[0].src not in {f.src for f in seen["flows"][k + 1 :]}


def test_killed_stream_settles_at_the_landing(monkeypatch):
    """The train's own view: the stream settles at x[k] with rows 0..k
    and the disk reads of rows 0..k+1, and ``done`` carries ``None``."""
    flows = _one_stream_flows(LONE)
    k = 7
    settled = []
    settle = ReadTrain._settle

    def recording(train, stream):
        rows, reads = len(stream._x), len(stream._d)
        settle(train, stream)
        settled.append(
            (train.env.now, rows, reads, stream.failed,
             stream.delivered_bytes, stream.done.value)
        )

    monkeypatch.setattr(ReadTrain, "_settle", recording)
    assert_equivalent(_kill_case("landing", k))
    assert settled[0] == (
        flows[k].end, k + 1, k + 2, flows[0].src, (k + 1) * PACKET, None
    )


# -- streams beside each other ----------------------------------------------
def test_three_staggered_readers_share_one_train(monkeypatch):
    """The chaos read campaign's shape: three readers 10 ms apart on one
    host, two serve slots, a kill.  The streams run beside each other on
    the host's one train, which leaves once the last one settles."""
    beside = []
    join = ReadTrain._join

    def recording(train, stream):
        join(train, stream)
        beside.append(len(train._streams))

    monkeypatch.setattr(ReadTrain, "_join", recording)
    case = Case(seed=11, n_datanodes=6, size=3 * BLOCK + 5 * KB,
                staggers=(0.0, 0.01, 0.02), serve_streams=2, slow_disk=False,
                faults=(Fault("kill", 0.2, 1),))
    seen = assert_equivalent(case)
    assert max(beside) == 3
    assert seen["trains_left"] == {}


def _stream_pair(coalesce: int, begin=None) -> list:
    """Stream block 0 from its best replica, and with ``begin`` a second
    stream of it from the same replica whose connection setup starts at
    ``begin``; returns the flows."""
    env, deployment = _deployment(LONE, coalesce)
    block = deployment.namenode.namespace.get("/f").blocks[0]
    source = HdfsReader(deployment)._candidates(block)[0]
    start = env.now
    first = HdfsReader(deployment, name="first")
    procs = [env.process(first._stream_from(source, block))]
    if begin is not None:
        second = HdfsReader(deployment, name="second")

        def late():
            yield env.timeout_at(begin)
            return (yield from second._stream_from(source, block))

        procs.append(env.process(late()))
    env.run(until=env.all_of(procs))
    return sorted(
        (f.start, f.end, f.src, f.size) for f in _read_flows(deployment, start)
    )


def test_join_at_a_neighbours_step():
    """A join landing exactly on a live stream's step on the same source
    quotes its first disk read after that step's, as the per-chunk loops
    order the two: the live step's waking event was created a chunk
    earlier, the joining reader's connection-setup timer one setup
    (shorter than a chunk) earlier."""
    lone = _stream_pair(1)
    step, target = lone[5][0], lone[6][0]
    setup = SimulationConfig().network.connection_setup
    begin = target - setup
    while begin + setup != target:
        begin = math.nextafter(begin, target if begin + setup < target else 0.0)
    assert step < begin  # the regime the docstring describes
    legacy = _stream_pair(1, begin)
    assert sum(f[0] == target for f in legacy) == 1
    assert _stream_pair(0, begin) == legacy


# -- the sweep --------------------------------------------------------------
faults = st.lists(
    st.builds(
        Fault,
        kind=st.sampled_from(
            ("kill", "kill", "throttle", "unthrottle", "copy") + EXACT
        ),
        at=st.floats(0.0, 1.0),
        pick=st.integers(0, 200),
    ),
    max_size=3,
).map(tuple)

cases = st.builds(
    Case,
    seed=st.integers(0, 2**16),
    n_datanodes=st.integers(4, 8),
    size=st.integers(BLOCK // 2, 3 * BLOCK),
    staggers=st.lists(st.floats(0.0, 0.03), min_size=1, max_size=4).map(
        lambda delays: tuple(sorted(delays))
    ),
    serve_streams=st.integers(1, 4),
    slow_disk=st.booleans(),
    faults=faults,
)


@settings(max_examples=40, deadline=None)
@given(cases)
@example(Case(seed=5, n_datanodes=5, size=2 * BLOCK, staggers=(0.0, 0.0, 0.01),
              serve_streams=1, slow_disk=True,
              faults=(Fault("landing", 0.0, 9), Fault("throttle", 0.1, 4))))
@example(Case(seed=8, n_datanodes=7, size=3 * BLOCK - 1,
              staggers=(0.0, 0.004, 0.01, 0.03), serve_streams=2,
              slow_disk=False,
              faults=(Fault("flight", 0.0, 40), Fault("disk", 0.0, 3),
                      Fault("unthrottle", 0.5, 0))))
# A kill lands exactly on another stream's last landing and frees a slot
# to a queued reader: the stream's reader must wake first.
@example(Case(seed=2438, n_datanodes=4, size=985900,
              staggers=(0.001, 0.0026419669497203427, 0.01230781627161105,
                        0.025611806502798255),
              serve_streams=2, slow_disk=True,
              faults=(Fault("kill", 0.7160783141048986, 100),
                      Fault("throttle", 0.3659156813039233, 32),
                      Fault("flight", 1.0, 170))))
# Two kills at one instant, the second exactly on a landing of a stream
# of its source, the first freeing a slot to a queued reader.
@example(Case(seed=0, n_datanodes=4, size=1966081, staggers=(0.0, 0.0, 0.0),
              serve_streams=1, slow_disk=False,
              faults=(Fault("flight", 0.0, 18), Fault("landing", 0.0, 110))))
# Two kills at one instant, the first exactly on a landing: its reader
# wakes after the second kill, which it then sees.
@example(Case(seed=6, n_datanodes=5, size=BLOCK // 2, staggers=(0.0, 0.0),
              serve_streams=1, slow_disk=False,
              faults=(Fault("landing", 0.0, 9), Fault("flight", 0.0, 10))))
def test_readers_on_one_host_match_the_per_chunk_loops(case):
    assert_equivalent(case)
