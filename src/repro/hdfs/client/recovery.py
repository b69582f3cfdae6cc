"""Pipeline fault recovery — the paper's Algorithm 3.

When the client catches an error while transmitting a block it

1. checks the validity of parameters and closes all streams of the block
   (the caller tears the pipeline down before invoking us);
2. moves all packets in the ACK queue back to the data queue (here the
   caller stops the responder and folds its acknowledged prefix into the
   block's :class:`~repro.hdfs.client.send.BlockProgress`; every packet
   the block has taken after that prefix is un-ACKed);
3. loops: pick the *primary* datanode from the surviving targets, replace
   the failed node with a fresh datanode from the namenode, run
   ``recoverBlock`` (generation-stamp bump + replica sync: the primary
   copies the already-acknowledged bytes to each replacement), and retry
   with the next primary if the current one died meanwhile;
4. the caller then recreates the block streams and the ResponseProcessor
   and resends the un-ACKed packets from the block's plan, without
   charging production again (:func:`~repro.hdfs.client.send.send_block`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...sim import ProcessGenerator
from ..protocol import Block, HdfsError, NoDatanodesAvailable

if TYPE_CHECKING:  # pragma: no cover
    from ..deployment import HdfsDeployment

__all__ = ["recover_pipeline", "RecoveryFailed"]


class RecoveryFailed(HdfsError):
    """No surviving datanode could recover the pipeline."""


def recover_pipeline(
    deployment: "HdfsDeployment",
    client_name: str,
    block: Block,
    targets: tuple[str, ...],
    failed: str,
    acked_bytes: int,
    blacklist: set[str],
    trace_parent: int = 0,
) -> ProcessGenerator:
    """Rebuild a damaged pipeline; returns ``(new_block, new_targets)``.

    ``acked_bytes`` is how much of the block every survivor already holds
    durably — replacements must be brought up to that point before the
    client resumes (the replica-sync part of ``recoverBlock``).
    """
    env = deployment.env
    namenode = deployment.namenode
    tracer = deployment.tracer
    t0 = env.now
    sid = tracer.begin(
        "recovery",
        f"client:{client_name}",
        f"b{block.block_id}",
        t0,
        parent=trace_parent,
        failed=failed,
        acked_bytes=acked_bytes,
    )
    deployment.metrics.count("recovery_count")

    survivors = [
        t
        for t in targets
        if t != failed and deployment.datanode(t).node.alive
    ]

    while True:
        if not survivors:
            tracer.end(sid, env.now, aborted=True)
            raise RecoveryFailed(
                f"block {block.block_id}: no surviving datanodes"
            )
        primary = survivors[0]
        primary_dn = deployment.datanode(primary)

        # Replace failed nodes to restore the original pipeline width,
        # degrading gracefully if the cluster has nothing left to offer.
        new_targets = list(survivors)
        needed = len(targets) - len(survivors)
        for _ in range(needed):
            try:
                extra = yield from namenode.get_additional_datanode(
                    client_name, block, new_targets, excluded=blacklist
                )
            except NoDatanodesAvailable:
                break
            new_targets.append(extra)

        # recoverBlock(primary, targets): bump the generation stamp (which
        # invalidates the failed node's stale replica), then the primary
        # syncs replacements up to the acknowledged length.
        new_block = yield from namenode.bump_generation(block)
        namenode.blocks.drop_replica(block.block_id, failed)
        for extra in new_targets[len(survivors):]:
            if acked_bytes > 0:
                yield env.process(
                    deployment.network.transfer(
                        primary_dn.node,
                        deployment.datanode(extra).node,
                        acked_bytes,
                    )
                )

        if primary_dn.node.alive:
            deployment.journal.emit(
                env.now,
                "pipeline_recovered",
                f"block:{block.block_id}",
                failed=failed,
                primary=primary,
                targets=tuple(new_targets),
                generation=new_block.generation,
            )
            tracer.end(sid, env.now, primary=primary)
            deployment.metrics.observe("recovery_duration", env.now - t0)
            return new_block, tuple(new_targets)

        # The primary died mid-recovery: Algorithm 3 line 13 — drop it
        # and try again with the next survivor.
        survivors = [
            t for t in survivors[1:] if deployment.datanode(t).node.alive
        ]
