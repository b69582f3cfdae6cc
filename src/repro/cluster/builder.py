"""Cluster construction: the four evaluation clusters from §V-A.

The paper uses:

* three homogeneous clusters — one namenode + nine datanodes, of small,
  medium or large instances;
* one heterogeneous cluster — 3 small + 4 medium + 3 large, with a medium
  instance as namenode (leaving 3 small + 3 medium + 3 large datanodes).

The uploading *client* is a separate machine of the cluster's instance
type (medium for the heterogeneous cluster, matching the namenode's
type).  Nodes are split across two racks for the two-rack experiments:
the client, namenode and the first ⌈n/2⌉ datanodes sit in ``rack0``, the
rest in ``rack1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SimulationConfig
from ..net.throttle import NodeThrottle, RackBoundaryThrottle
from ..net.topology import Topology
from ..net.transport import Network
from ..sim import Environment
from ..units import mbps
from .instance import LARGE, MEDIUM, SMALL, InstanceType, instance_by_name
from .node import Node

__all__ = ["Cluster", "build_homogeneous", "build_heterogeneous"]


@dataclass
class Cluster:
    """The physical substrate an HDFS deployment runs on."""

    env: Environment
    network: Network
    namenode_host: Node
    datanode_hosts: list[Node]
    client_host: Node
    config: SimulationConfig
    extra_client_hosts: list[Node] = field(default_factory=list)

    @property
    def topology(self) -> Topology:
        return self.network.topology

    @property
    def all_hosts(self) -> list[Node]:
        return (
            [self.namenode_host, self.client_host]
            + self.extra_client_hosts
            + self.datanode_hosts
        )

    def host(self, name: str) -> Node:
        """Look up any host by name."""
        for node in self.all_hosts:
            if node.name == name:
                return node
        raise KeyError(f"unknown host {name!r}")

    def datanode_host(self, name: str) -> Node:
        for node in self.datanode_hosts:
            if node.name == name:
                return node
        raise KeyError(f"unknown datanode host {name!r}")

    # -- tc-style throttling helpers ---------------------------------------
    def throttle_rack_boundary(self, rate_mbps: float) -> None:
        """Cap cross-rack traffic (two-rack scenario, §V-B.1)."""
        self.network.throttles.add(RackBoundaryThrottle(mbps(rate_mbps)))

    def throttle_node(self, name: str, rate_mbps: float) -> None:
        """Cap one node's traffic in both directions (§V-B.2)."""
        self.host(name)  # validate
        self.network.throttles.add(NodeThrottle(name, mbps(rate_mbps)))

    def throttle_datanodes(self, count: int, rate_mbps: float) -> list[str]:
        """Cap the *last* ``count`` datanodes; returns their names.

        Throttling the tail of the datanode list keeps the throttled set
        deterministic and spread across both racks (the list alternates
        by construction order, not rack).
        """
        if not 0 <= count <= len(self.datanode_hosts):
            raise ValueError(
                f"count must be in [0, {len(self.datanode_hosts)}], got {count}"
            )
        chosen = [n.name for n in self.datanode_hosts[-count:]] if count else []
        for name in chosen:
            self.throttle_node(name, rate_mbps)
        return chosen


def _two_racks(
    types: list[InstanceType], n_local: int
) -> list[tuple[str, InstanceType, str]]:
    """Datanodes ``dn0``… of ``types``: the first ``n_local`` in ``rack0``,
    the rest in ``rack1``."""
    return [
        (f"dn{i}", itype, "rack0" if i < n_local else "rack1")
        for i, itype in enumerate(types)
    ]


def _build(
    env: Environment,
    config: SimulationConfig | None,
    host_type: InstanceType,
    datanode_specs: list[tuple[str, InstanceType, str]],
    n_extra_clients: int = 0,
) -> Cluster:
    """The construction both builders share: the namenode, the client
    and ``n_extra_clients`` more clients, all of ``host_type`` and in
    ``rack0``, then one datanode per ``(name, type, rack)`` spec, the
    topology and the network."""
    config = config or SimulationConfig()
    topo = Topology()
    namenode = Node(env, "namenode", host_type, rack="rack0")
    client = Node(env, "client", host_type, rack="rack0")
    topo.add_host("namenode", "rack0")
    topo.add_host("client", "rack0")

    extra_clients = []
    for i in range(n_extra_clients):
        name = f"client{i + 1}"
        extra_clients.append(Node(env, name, host_type, rack="rack0"))
        topo.add_host(name, "rack0")

    datanodes = []
    for name, itype, rack in datanode_specs:
        datanodes.append(Node(env, name, itype, rack=rack))
        topo.add_host(name, rack)

    return Cluster(
        env=env,
        network=Network(env, topo, config=config.network),
        namenode_host=namenode,
        datanode_hosts=datanodes,
        client_host=client,
        config=config,
        extra_client_hosts=extra_clients,
    )


def build_homogeneous(
    env: Environment,
    instance: InstanceType | str = SMALL,
    n_datanodes: int = 9,
    config: SimulationConfig | None = None,
    n_local: int | None = None,
    n_extra_clients: int = 0,
) -> Cluster:
    """One namenode + ``n_datanodes`` datanodes + one client, all of one type.

    The namenode and client live in ``rack0`` together with ``n_local``
    datanodes; the rest go to ``rack1``.  ``n_local`` defaults to a
    balanced split (⌈n/2⌉ — the paper does not state its split, and EC2
    'racks' were emulated with tc, so balanced is the natural reading; 9
    datanodes → 5 local + 4 remote).  Pass a different ``n_local`` to
    study asymmetric layouts.
    """
    itype = instance_by_name(instance) if isinstance(instance, str) else instance
    if n_datanodes < 1:
        raise ValueError("need at least one datanode")
    if n_local is None:
        n_local = n_datanodes - n_datanodes // 2
    if not 0 <= n_local <= n_datanodes:
        raise ValueError(f"n_local must be in [0, {n_datanodes}]")
    return _build(
        env,
        config,
        itype,
        _two_racks([itype] * n_datanodes, n_local),
        n_extra_clients,
    )


def build_heterogeneous(
    env: Environment,
    config: SimulationConfig | None = None,
) -> Cluster:
    """The paper's mixed cluster: 3 small + 3 medium + 3 large datanodes.

    One medium instance is the namenode (§V-A); the client is medium too.
    Instance types interleave across the balanced two-rack split so
    neither rack is uniformly fast.
    """
    mix = [SMALL, MEDIUM, LARGE] * 3
    return _build(
        env, config, MEDIUM, _two_racks(mix, len(mix) - len(mix) // 2)
    )
