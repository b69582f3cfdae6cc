"""The namenode service: namespace RPCs, block allocation, liveness.

Client-facing calls (``create_file``, ``add_block``, ``complete_file``,
``get_additional_datanode``) are process generators that charge the RPC
round-trip latency ``T_n`` (§III-D) before executing.  Datanode-facing
calls (registration, blockReceived) arrive via control messages and
execute synchronously at the namenode; datanode heartbeats are analytic
beat chains in the :class:`~repro.hdfs.datanode_manager.DatanodeManager`.

The namenode places new blocks with
:class:`~repro.hdfs.placement.DefaultPlacementPolicy` on its own RNG;
SMARTH deployments install
:class:`~repro.smarth.global_opt.SmarthPlacementPolicy` (Algorithm 1),
which reads the per-client speed registry populated by client heartbeats
(§III-B).
"""

from __future__ import annotations

import random
from typing import Iterable

from ..analysis.trace import Journal
from ..cluster.node import Node
from ..config import HdfsConfig
from ..net.transport import Network
from ..obs import MetricsRegistry, Tracer
from ..sim import Environment, ProcessGenerator
from .block_manager import BlockManager
from .datanode_manager import DatanodeManager
from .namespace import Namespace
from .placement import DefaultPlacementPolicy, PlacementPolicy
from .protocol import Block, BlockTargets, NoDatanodesAvailable

__all__ = ["Namenode", "SpeedRegistry", "UncachedSpeedRegistry"]

#: Shared empty map for clients with no records (never mutated).
_NO_RECORDS: dict[str, float] = {}


class SpeedRegistry:
    """Per-client datanode transfer-speed records (§III-B).

    Clients measure the speed of each block transfer to its *first*
    datanode and piggyback the records on 3-second heartbeats; the
    namenode keeps the latest value per (client, datanode).

    Ranking fast path: the registry memoizes one full ranking per client,
    sorted by ``(-speed, name)``, and invalidates it whenever a heartbeat
    changes that client's records.  :meth:`top_n` then filters the cached
    ranking by membership instead of rebuilding a pool dict and re-sorting
    per allocation — ``add_block`` at 3-second heartbeat cadence reuses
    the same ranking for every allocation in between.  Ties always break
    by datanode name, matching the order the allocation path historically
    produced (its ``among`` pools are name-sorted).
    """

    def __init__(self) -> None:
        self._records: dict[str, dict[str, float]] = {}
        #: client → datanodes sorted by (-speed, name); dropped on update.
        self._ranked: dict[str, list[str]] = {}

    def update(self, client: str, records: dict[str, float]) -> None:
        if not records:
            return
        mine = self._records.setdefault(client, {})
        for name, speed in records.items():
            if mine.get(name) != speed:
                mine.update(records)
                self._ranked.pop(client, None)
                return

    def records_for(self, client: str) -> dict[str, float]:
        """Latest known speeds (bytes/s) per datanode for a client."""
        return dict(self._records.get(client, {}))

    def has_records(self, client: str) -> bool:
        return bool(self._records.get(client))

    def ranking(self, client: str) -> list[str]:
        """All recorded datanodes for ``client``, fastest first.

        Cached until the next heartbeat changes the client's records; ties
        break by name.  Callers must not mutate the returned list.
        """
        ranked = self._ranked.get(client)
        if ranked is None:
            records = self._records.get(client, {})
            ranked = sorted(records, key=lambda d: (-records[d], d))
            self._ranked[client] = ranked
        return ranked

    def top_n(
        self, client: str, n: int, among: Iterable[str] | None = None
    ) -> list[str]:
        """The ``n`` fastest datanodes for ``client`` (Algorithm 1 l.5).

        ``among`` restricts the pool by *membership* only; pass a set or
        frozenset to avoid a rebuild.  Order always comes from the cached
        ranking.
        """
        if n <= 0:
            return []
        ranked = self.ranking(client)
        if among is None:
            return ranked[:n]
        member = (
            among
            if isinstance(among, (set, frozenset))
            else frozenset(among)
        )
        out: list[str] = []
        for d in ranked:
            if d in member:
                out.append(d)
                if len(out) == n:
                    break
        return out

    def speed_table(self, client: str) -> dict[str, float]:
        """The client's live record map — read-only, do not mutate.

        Replica ranking on the read path consults this per block read;
        handing out the internal dict (unlike :meth:`records_for`'s
        copy) keeps that O(holders) per read.
        """
        return self._records.get(client, _NO_RECORDS)

class UncachedSpeedRegistry(SpeedRegistry):
    """Reference registry: rebuild the pool and re-sort on every query.

    This is the pre-cache implementation, kept as the baseline the
    equivalence suite and ``benchmarks/bench_scale.py`` compare against.
    It must answer every query exactly like :class:`SpeedRegistry` —
    ties break by name because its pools iterate in name-sorted order
    when ``among`` is name-sorted, and explicitly otherwise.
    """

    def update(self, client: str, records: dict[str, float]) -> None:
        if not records:
            return
        self._records.setdefault(client, {}).update(records)

    def ranking(self, client: str) -> list[str]:
        records = self._records.get(client, {})
        return sorted(records, key=lambda d: (-records[d], d))

    def top_n(
        self, client: str, n: int, among: Iterable[str] | None = None
    ) -> list[str]:
        records = self._records.get(client, {})
        pool = records if among is None else {
            d: records[d] for d in among if d in records
        }
        ranked = sorted(pool, key=lambda d: (-pool[d], d))
        return ranked[:max(0, n)]


class Namenode:
    """The namenode service running on one cluster node."""

    #: Swappable registry class: the scale benchmark and the fast-path
    #: equivalence suite install :class:`UncachedSpeedRegistry` here to
    #: run whole experiments against the reference allocation path.
    speed_registry_factory = SpeedRegistry

    def __init__(
        self,
        env: Environment,
        node: Node,
        network: Network,
        config: HdfsConfig,
        journal: Journal,
        tracer: Tracer,
        metrics: MetricsRegistry,
        seed: int = 0,
        start_monitor: bool = True,
    ):
        self.env = env
        self.node = node
        self.network = network
        self.config = config
        self.namespace = Namespace()
        self.blocks = BlockManager()
        self.datanodes = DatanodeManager(env, config)
        self.speeds = self.speed_registry_factory()
        self.rng = random.Random(seed)
        self.journal = journal
        self.tracer = tracer
        self.metrics = metrics
        #: ``DefaultPlacementPolicy`` shares :attr:`rng` with
        #: :meth:`get_additional_datanode`; a SMARTH deployment swaps in
        #: Algorithm 1's placement after construction.
        self.placement: PlacementPolicy = DefaultPlacementPolicy(
            network.topology, self.datanodes, self.rng
        )
        self._monitor = None
        if start_monitor:
            self.start_monitor()

    @property
    def name(self) -> str:
        return self.node.name

    # -- liveness-monitor lifecycle (checkpoint barriers stop/restart it) ------
    def start_monitor(self) -> None:
        """(Re)start the datanode liveness monitor if it is not running.

        The monitor is a process that only holds its lifetime; it arms a
        tick only where a datanode expires
        (:meth:`~repro.hdfs.datanode_manager.DatanodeManager.monitor`).
        """
        if self._monitor is None or not self._monitor.is_alive:
            self._monitor = self.env.process(
                self.datanodes.monitor(), name="nn:monitor"
            )

    def stop_monitor(self) -> None:
        """Interrupt the liveness monitor (no-op if already stopped)."""
        if self._monitor is not None and self._monitor.is_alive:
            self._monitor.interrupt("monitor stopped")

    def _rpc(self) -> ProcessGenerator:
        """Charge one client↔namenode RPC round trip (``T_n``)."""
        yield self.env.timeout(self.config.namenode_rpc_latency)

    # -- client RPCs ---------------------------------------------------------
    def create_file(self, client: str, path: str) -> ProcessGenerator:
        """§II step 1: namespace checks + create."""
        yield from self._rpc()
        self.namespace.create(path, client)

    def add_block(
        self,
        client: str,
        path: str,
        size: int,
        excluded: Iterable[str] = (),
    ) -> ProcessGenerator:
        """§II step 2's addBlock(): new block ID + pipeline targets.

        Returns a :class:`BlockTargets` (as the process's value).
        """
        t0 = self.env.now
        sid = self.tracer.begin(
            "allocate", "namenode", f"allocate:{client}", t0,
            client=client, path=path,
        )
        yield from self._rpc()
        self.datanodes.settle()
        inode = self.namespace.check_lease(path, client)
        rank = self.tracer.begin(
            "rank", "namenode", f"allocate:{client}", self.env.now, parent=sid,
        )
        targets = self.placement.choose_targets(
            client, self.config.replication, excluded
        )
        self.tracer.end(rank, self.env.now, targets=targets)
        block = self.blocks.allocate(path, index=len(inode.blocks), size=size)
        self.blocks.expect_replicas(block.block_id, targets)
        self.namespace.append_block(path, client, block)
        self.journal.emit(
            self.env.now,
            "add_block",
            f"block:{block.block_id}",
            path=path,
            client=client,
            targets=targets,
        )
        self.tracer.end(sid, self.env.now, block=block.block_id)
        self.metrics.observe("allocate_latency", self.env.now - t0)
        return BlockTargets(block=block, targets=targets)

    def get_additional_datanode(
        self,
        client: str,
        block: Block,
        existing: Iterable[str],
        excluded: Iterable[str] = (),
    ) -> ProcessGenerator:
        """Recovery: one replacement datanode for a damaged pipeline.

        Returns the chosen datanode name.
        """
        yield from self._rpc()
        self.datanodes.settle()
        existing_set = set(existing)
        avoid = existing_set | set(excluded)
        candidates = [
            d for d in self.datanodes.live_datanodes() if d not in avoid
        ]
        if not candidates:
            raise NoDatanodesAvailable(
                f"no replacement datanode for block {block.block_id}"
            )
        choice = candidates[self.rng.randrange(len(candidates))]
        self.blocks.expect_replicas(block.block_id, (choice,))
        return choice

    def bump_generation(self, block: Block) -> ProcessGenerator:
        """Recovery: new generation stamp for a recovering block."""
        yield from self._rpc()
        new_block = self.blocks.bump_generation(block.block_id)
        self.namespace.replace_block(block.path, new_block)
        return new_block

    def complete_file(self, client: str, path: str) -> ProcessGenerator:
        """§II step 6: the client reports all ACKs received."""
        yield from self._rpc()
        inode = self.namespace.complete(path, client)
        for block in inode.blocks:
            self.blocks.commit(block.block_id)
        self.journal.emit(
            self.env.now, "file_complete", path, client=client,
            blocks=len(inode.blocks),
        )

    def client_heartbeat(self, client: str, records: dict[str, float]) -> ProcessGenerator:
        """SMARTH §III-B: speed records piggybacked on the heartbeat."""
        sid = self.tracer.begin(
            "heartbeat", "namenode", f"heartbeat:{client}", self.env.now,
            client=client,
        )
        yield from self._rpc()
        self.speeds.update(client, records)
        self.tracer.end(sid, self.env.now)
        self.metrics.count("heartbeats_total")

    # -- datanode-facing (synchronous, reached via control messages) -----------
    def register_datanode(self, name: str, rack: str) -> None:
        self.datanodes.register(name, rack)

    def block_received(self, block_id: int, datanode: str, size: int) -> None:
        self.blocks.replica_received(block_id, datanode, size)

    # -- cluster-state queries (for tests and the experiment harness) ----------
    def replication_of(self, block_id: int) -> int:
        return self.blocks.replication_of(block_id)

    def file_fully_replicated(self, path: str) -> bool:
        """True iff every block of ``path`` has ``replication`` finalized
        replicas — the end-state every fault-tolerance test asserts."""
        inode = self.namespace.get(path)
        return all(
            self.blocks.replication_of(b.block_id) >= self.config.replication
            for b in inode.blocks
        )
