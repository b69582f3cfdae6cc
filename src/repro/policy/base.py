"""The one strategy object of a deployment: replication and tuning.

The paper fixes SMARTH's key knobs at design time: a static replication
factor of 3, the 0.8 local-optimization threshold (Algorithm 2) and the
``num/repli`` pipeline cap.  The policy layer makes those decisions
swappable, so heuristic and adaptive strategies — popularity-driven
replica management (Lee 2020) and online protocol tuning (Arslan &
Kosar) — can be compared head-to-head with the stock behavior.
Placement is not a policy decision: the namenode always places with
:class:`~repro.hdfs.placement.DefaultPlacementPolicy`, and a SMARTH
deployment installs Algorithm 1's
:class:`~repro.smarth.global_opt.SmarthPlacementPolicy`.

:class:`Policy`
    The per-deployment strategy object the replication monitor, the read
    path and the SMARTH client all call.  Its base implementations *are*
    the stock behavior — the ``default`` registry entry is proven
    byte-identical to the pre-policy code paths by the golden suites — so
    a subclass only overrides the decisions it wants to change.  Default
    hooks leave every RNG draw sequence untouched, which is what makes
    that equivalence provable.

:class:`ClientTuning`
    Per-upload knob overrides a policy hands a
    :class:`~repro.smarth.multi_writer.SmarthClient` at the start of each
    ``put``: the Algorithm 2 threshold and the pipeline cap.  ``None``
    fields mean "keep the configured value".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node
    from ..hdfs.deployment import HdfsDeployment
    from ..net.topology import Topology

__all__ = ["ClientTuning", "NO_TUNING", "Policy"]


@dataclass(frozen=True)
class ClientTuning:
    """Per-upload overrides for one SMARTH client.  ``None`` = keep config."""

    #: Algorithm 2 exploration threshold (the paper's fixed 0.8).
    local_opt_threshold: Optional[float] = None
    #: Concurrent-pipeline cap; overrides the ``num/repli`` rule.  Must
    #: not exceed it — the §IV-C invariant is checked against the rule.
    max_pipelines: Optional[int] = None


#: The identity tuning: every knob keeps its configured value.
NO_TUNING = ClientTuning()


class Policy:
    """Per-deployment strategy object (the ``default`` behavior).

    One instance is bound to one deployment via :meth:`bind` (called by
    ``resolve_policy`` / the deployment constructor).  Instances may be
    re-bound across deployments — an online tuner carries its learned
    state from upload to upload that way.

    The replication hooks are the stock monitor behavior verbatim: a
    uniform target of ``replication`` replicas per block, a uniform
    random source among non-saturated holders, and the rack-aware target
    pick (prefer a rack without a replica yet).  Byte-identity of the
    ``default`` policy rests on them consuming the monitor's RNG in
    exactly the historical order.  Subclasses override only the
    decisions they change.
    """

    #: Registry name; subclasses registered via ``register_policy`` must
    #: set a unique one.
    name = "default"

    #: Whether the monitor should run the excess-trimming pass.  The
    #: stock policy never over-replicates, so the pass (and its per-block
    #: scan cost) is skipped entirely unless a policy opts in.
    manages_excess = False

    def __init__(self, deployment: Optional["HdfsDeployment"] = None):
        self.deployment: Optional["HdfsDeployment"] = None
        if deployment is not None:
            self.bind(deployment)

    def bind(self, deployment: "HdfsDeployment") -> "Policy":
        """Attach to a deployment."""
        self.deployment = deployment
        #: The baseline replication factor (``HdfsConfig.replication``).
        #: No policy may target fewer replicas than this — durability
        #: invariants (acked durability, replication convergence) are
        #: stated against it.
        self.replication = deployment.config.hdfs.replication
        return self

    # -- replication ---------------------------------------------------
    def scan_replication(self) -> int:
        """Upper bound fed to ``BlockManager.under_replicated``.

        Blocks with at least this many finalized replicas are never
        scanned; a policy whose per-block targets can exceed the base
        factor must widen this bound.
        """
        return self.replication

    def target_replication(self, block_id: int, now: float) -> int:
        """Desired replica count for one block (>= ``replication``)."""
        return self.replication

    def select_source(
        self, rng: random.Random, sources: Sequence[str]
    ) -> str:
        """Pick the holder that streams the copy (uniform random)."""
        return sources[rng.randrange(len(sources))]

    def select_target(
        self,
        rng: random.Random,
        holders: Sequence[str],
        live: set[str],
        topology: "Topology",
    ) -> Optional[str]:
        """A live non-holder, preferring a rack without a replica yet."""
        candidates = sorted(live - set(holders))
        if not candidates:
            return None
        holder_racks = {topology.rack_of(h) for h in holders}
        fresh_rack = [
            c for c in candidates if topology.rack_of(c) not in holder_racks
        ]
        pool = fresh_rack or candidates
        return pool[rng.randrange(len(pool))]

    def excess_replicas(
        self, block_id: int, holders: Sequence[str], now: float
    ) -> tuple[str, ...]:
        """Replicas to drop for one block (only if ``manages_excess``).

        Must never shrink a block below ``replication`` — the monitor
        re-checks, but returning a legal set is the policy's contract.
        """
        return ()

    # -- reads ---------------------------------------------------------
    def note_read(self, block_id: int, datanode: str) -> None:
        """One whole-block read served; feeds popularity counters."""

    def rank_replicas(
        self,
        client: str,
        block_id: int,
        candidates: list[str],
        node: "Node",
    ) -> list[str]:
        """Order live replica holders for one block read, best first.

        ``candidates`` arrives pre-shuffled by the caller's per-(client,
        block) substream, so every tie the sorts below leave is broken by
        a seed-stable coin rather than dict order.  The default is
        speed-aware: candidates sort by the client's recorded speed in
        the namenode's :class:`~repro.hdfs.namenode.SpeedRegistry` (the
        heartbeat-piggybacked §III-B measurements), fastest first.
        Coverage is partial — only pipeline *heads* ever get measured —
        so unrecorded candidates assume the mean recorded speed rather
        than sorting categorically before or after recorded ones:
        known-slow replicas fall behind unknowns, known-fast ones pull
        ahead, and the sort's stability leaves everything else in
        topology-locality order (same node < same rack < off rack).  A
        cold registry — every baseline-HDFS-only history — therefore
        reduces to the pre-ranking locality order exactly.  Sorts are in
        place; the returned list may be ``candidates`` itself.
        """
        deployment = self.deployment
        topology = deployment.network.topology
        if node.name in topology:
            candidates.sort(
                key=lambda dn: topology.distance(node.name, dn)
            )
        else:
            candidates.sort(
                key=lambda dn: 0 if topology.rack_of(dn) == node.rack else 1
            )
        speeds = deployment.namenode.speeds.speed_table(client)
        if speeds:
            prior = sum(speeds.values()) / len(speeds)
            candidates.sort(key=lambda dn: -speeds.get(dn, prior))
        return candidates

    # -- client tuning -------------------------------------------------
    def tuning_for(self, client: str) -> ClientTuning:
        """Knob overrides for ``client``'s next upload (identity here)."""
        return NO_TUNING

    def observe_upload(
        self,
        client: str,
        path: str,
        nbytes: int,
        duration: float,
        tuning: ClientTuning,
    ) -> None:
        """Feedback after one completed upload (no-op by default)."""

    # -- reporting -----------------------------------------------------
    def describe(self) -> dict:
        """Small, JSON-able self-description for reports and benches."""
        return {"name": self.name}
