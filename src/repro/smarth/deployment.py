"""SMARTH deployment: baseline HDFS services + Algorithm 1 placement.

:func:`deploy` is the one place that picks the deployment class for a
system name.
"""

from __future__ import annotations

import random
from typing import Optional

from ..cluster.builder import Cluster
from ..cluster.node import Node
from ..hdfs.deployment import HdfsDeployment
from ..policy.registry import PolicySpec
from .global_opt import SmarthPlacementPolicy
from .multi_writer import SmarthClient

__all__ = ["SmarthDeployment", "deploy"]


class SmarthDeployment(HdfsDeployment):
    """An HDFS deployment with the SMARTH namenode placement installed.

    Datanode and namenode services are unchanged (SMARTH is a protocol
    change, not a storage change); the namenode's placement policy is
    swapped for Algorithm 1's
    :class:`~repro.smarth.global_opt.SmarthPlacementPolicy`, and clients
    are :class:`~repro.smarth.multi_writer.SmarthClient` instances.
    """

    def __init__(
        self,
        cluster: Cluster,
        enable_replication_monitor: bool = True,
        observe: bool = False,
        start_services: bool = True,
        policy: PolicySpec = None,
    ):
        super().__init__(
            cluster,
            enable_replication_monitor=enable_replication_monitor,
            observe=observe,
            start_services=start_services,
            policy=policy,
        )
        cfg = self.config
        self.namenode.placement = SmarthPlacementPolicy(
            topology=self.network.topology,
            datanodes=self.namenode.datanodes,
            speeds=self.namenode.speeds,
            rng=random.Random(cfg.seed ^ 0xC0FFEE),
            replication=cfg.hdfs.replication,
            enabled=cfg.smarth.enable_global_opt,
        )

    def client(
        self, host: Optional[Node] = None, name: Optional[str] = None
    ) -> SmarthClient:
        """Create a SMARTH write client on ``host`` (default: the cluster's
        client node)."""
        return SmarthClient(self, host=host, name=name)


def deploy(system: str, cluster: Cluster, **options: object) -> HdfsDeployment:
    """Deploy ``system`` (``"hdfs"`` or ``"smarth"``) on ``cluster``.

    ``options`` are passed through to the deployment's constructor
    (``observe``, ``policy``, ``start_services``, ...).
    """
    if system == "smarth":
        return SmarthDeployment(cluster, **options)
    if system == "hdfs":
        return HdfsDeployment(cluster, **options)
    raise ValueError(f"unknown system {system!r}; expected hdfs|smarth")
