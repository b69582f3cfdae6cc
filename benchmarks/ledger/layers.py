"""Per-layer attribution for a traced run: cProfile self time and probes.

Layers are named after the modules of ``src/repro`` and every module
belongs to exactly one (:func:`layer_of`).  A traced run installs the
stdlib profiler, so each function call is a span; a layer's self time is
the summed ``tottime`` of its functions.  Time a function outside
``repro`` spends (stdlib, numpy, builtins, this benchmark) is charged to
its nearest ``repro`` callers, split by each caller's share of that
function's cumulative time.  What no ``repro`` frame ever called is
``unattributed``.

The deterministic counters are cProfile call counts of plain functions
(generator functions are counted once per resume, so they are counted
through a plain function they call once instead) plus :class:`Probes`:
wrappers around the train planners where the clients import them, and
around :meth:`Environment.run` for heap statistics.  Probes only count;
they change no simulated result, and :meth:`Probes.remove` restores
every wrapped attribute.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from pathlib import Path
from weakref import WeakKeyDictionary

import repro
from repro.hdfs.client import data_streamer, input_stream
from repro.sim import Environment
from repro.smarth import multi_writer

#: Root of the ``repro`` package, for mapping profiled files to modules.
PACKAGE_DIR = Path(repro.__file__).resolve().parent

LAYERS = (
    "sim",
    "net",
    "hdfs.train",
    "hdfs.client",
    "hdfs.namenode",
    "hdfs.datanode",
    "smarth",
    "policy",
    "faults",
    "service",
    "cluster",
    "obs",
    "driver",
)

_PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "smarth": "smarth",
    "policy": "policy",
    "faults": "faults",
    "service": "service",
    "cluster": "cluster",
    "obs": "obs",
    "workloads": "driver",
    "experiments": "driver",
    "analysis": "driver",
    "mapred": "driver",
}
_NAMENODE_MODULES = {
    "namenode.py",
    "placement.py",
    "block_manager.py",
    "datanode_manager.py",
    "namespace.py",
    "replication.py",
}

#: Counter name -> (module, function) whose cProfile call count it is;
#: each name is unique in its module.  ``None`` as the module matches the
#: name in any module.  ``add_block`` and ``open_serve`` are generators,
#: so they are counted by the block allocation and the serve close each
#: makes exactly once.
CALL_COUNTS = {
    "hdfs.train.replays": ("hdfs/train.py", "_replay"),
    "hdfs.client.legacy_packets": ("hdfs/client/responder.py", "packet_sent"),
    "net.quotes": ("sim/resources.py", "quote"),
    "net.throttle_changes": ("net/throttle.py", "_notify"),
    "hdfs.namenode.add_block": ("hdfs/block_manager.py", "allocate"),
    "hdfs.namenode.choose_targets": (None, "choose_targets"),
    "hdfs.datanode.open_receiver": ("hdfs/datanode.py", "open_receiver"),
    "hdfs.datanode.open_serve": ("hdfs/datanode.py", "_serve_closed"),
    "obs.journal_emits": ("analysis/trace.py", "emit"),
    "obs.metric_observes": ("obs/metrics.py", "observe"),
    "obs.spans": ("obs/spans.py", "begin"),
}


#: Rounds of pushing non-repro time up to callers, and the amount below
#: which owed time is dropped (it stays unattributed).
_MAX_ROUNDS = 200
_CRUMB_S = 1e-9


def layer_of(module: str) -> str:
    """The layer of a module path relative to ``src/repro``."""
    parts = module.split("/")
    if module == "analysis/trace.py":
        return "obs"
    if len(parts) == 1:  # cli, config, pool, rng, units, package init
        return "driver"
    if parts[0] == "hdfs":
        if parts[1] == "client":
            return "hdfs.client"
        if parts[1] == "train.py":
            return "hdfs.train"
        if parts[1] in _NAMENODE_MODULES:
            return "hdfs.namenode"
        return "hdfs.datanode"
    return _PACKAGE_LAYER[parts[0]]


def _module(filename: str):
    """``filename`` relative to the repro package, or ``None`` outside it."""
    try:
        return Path(filename).resolve().relative_to(PACKAGE_DIR).as_posix()
    except ValueError:
        return None


def attribute(stats: pstats.Stats) -> dict:
    """Split a profile's self time over the layers.

    Returns ``{"total_s", "self_s": {layer: s}, "unattributed_s",
    "calls": {counter: n}}``; the layer times plus ``unattributed_s`` sum
    to ``total_s``, the profile's summed ``tottime``.
    """
    table = stats.stats
    layer = {}
    for func in table:
        module = _module(func[0])
        layer[func] = layer_of(module) if module is not None else None

    self_s = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    # Time still owed by non-repro functions, pushed one caller level up
    # per round until a repro caller absorbs it (recursion converges).
    owed: dict = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        total += tottime
        if layer[func] is not None:
            self_s[layer[func]] += tottime
        elif tottime:
            owed[func] = tottime
    for _round in range(_MAX_ROUNDS):
        if not owed:
            break
        pushed: dict = {}
        for func, amount in owed.items():
            callers = table[func][4]
            weights = {c: v[3] for c, v in callers.items()}  # cumulative time
            if not sum(weights.values()):
                weights = {c: v[1] for c, v in callers.items()}  # call count
            norm = sum(weights.values())
            for caller, weight in weights.items():
                share = amount * weight / norm
                if layer[caller] is not None:
                    self_s[layer[caller]] += share
                else:
                    pushed[caller] = pushed.get(caller, 0.0) + share
        owed = {f: a for f, a in pushed.items() if a > _CRUMB_S}
    return {
        "total_s": total,
        "self_s": self_s,
        "unattributed_s": total - sum(self_s.values()),
        "calls": call_counts(stats),
    }


def profiled(run, inputs):
    """``run(inputs)`` under cProfile with the probes installed.

    Returns the run's outcome and its ledger: :func:`attribute`'s result
    plus the probe counters under ``"probes"``.
    """
    probes = Probes()
    probes.install()
    profile = cProfile.Profile()
    try:
        outcome = profile.runcall(run, inputs)
    finally:
        probes.remove()
    ledger = attribute(pstats.Stats(profile))
    ledger["probes"] = probes.counters()
    return outcome, ledger


def call_counts(stats: pstats.Stats) -> dict:
    """The :data:`CALL_COUNTS` tallies of one profile."""
    counts = dict.fromkeys(CALL_COUNTS, 0)
    for (filename, _line, name), (_cc, ncalls, *_rest) in stats.stats.items():
        module = _module(filename)
        if module is None:
            continue
        for counter, (want_module, want_name) in CALL_COUNTS.items():
            if name == want_name and want_module in (None, module):
                counts[counter] += ncalls
    return counts


class Probes:
    """Passive counting wrappers, installed only for the traced run.

    The train planners are wrapped where the clients look them up
    (``data_streamer``/``multi_writer`` for writes, ``input_stream`` for
    reads): each call tallies a planned or declined block, and a decline
    while the deployment holds scheduled disturbances also counts as
    ``declined_disturbed``.  ``Environment.run`` is wrapped to keep the
    largest heap and the tombstones skipped across every environment.
    """

    _SITES = (
        (data_streamer, "plan_train", "write"),
        (multi_writer, "plan_train", "write"),
        (input_stream, "plan_read_train", "read"),
    )

    def __init__(self) -> None:
        self.tally: Counter = Counter()
        self.heap_high_water = 0
        self.tombstones_skipped = 0
        #: Tombstones already counted, per live environment.
        self._seen: WeakKeyDictionary = WeakKeyDictionary()
        self._saved: list = []

    def install(self) -> None:
        for module, attr, kind in self._SITES:
            self._wrap(module, attr, self._planner(getattr(module, attr), kind))
        self._wrap(Environment, "run", self._env_run(Environment.run))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _planner(self, plan, kind: str):
        tally = self.tally

        def counted_plan(deployment, *args, **kwargs):
            train = plan(deployment, *args, **kwargs)
            if train is not None:
                tally[f"{kind}_planned"] += 1
            else:
                tally[f"{kind}_declined"] += 1
                if deployment.scheduled_disturbances:
                    tally["declined_disturbed"] += 1
            return train

        return counted_plan

    def _env_run(self, run):
        probes = self

        def observed_run(env, *args, **kwargs):
            try:
                return run(env, *args, **kwargs)
            finally:
                probes.heap_high_water = max(
                    probes.heap_high_water, env.heap_high_water
                )
                skipped = env.tombstones_skipped
                probes.tombstones_skipped += skipped - probes._seen.get(env, 0)
                probes._seen[env] = skipped

        return observed_run

    def counters(self) -> dict:
        """The probe tallies under their per-layer metric names."""
        out = {
            f"hdfs.train.{key}": self.tally[key]
            for key in (
                "write_planned",
                "write_declined",
                "read_planned",
                "read_declined",
                "declined_disturbed",
            )
        }
        for kind in ("write", "read"):
            offered = self.tally[f"{kind}_planned"] + self.tally[f"{kind}_declined"]
            out[f"hdfs.train.{kind}_coverage"] = (
                self.tally[f"{kind}_planned"] / offered if offered else 0.0
            )
        out["sim.heap_high_water"] = self.heap_high_water
        out["sim.tombstones_skipped"] = self.tombstones_skipped
        return out
