"""Scenario builders — the paper's four evaluation settings (§V).

A :class:`Scenario` is a named recipe producing a fresh cluster (with its
throttles applied) inside a fresh environment, so repeated runs are fully
independent and deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster.builder import (
    Cluster,
    build_heterogeneous,
    build_homogeneous,
)
from ..config import SimulationConfig
from ..sim import Environment

__all__ = [
    "Scenario",
    "two_rack",
    "contention",
    "heterogeneous",
]


@dataclass(frozen=True)
class Scenario:
    """A reproducible cluster recipe."""

    name: str
    description: str
    build: Callable[[Environment, SimulationConfig], Cluster]

    def make(
        self, config: Optional[SimulationConfig] = None
    ) -> tuple[Environment, Cluster]:
        """Instantiate the scenario: fresh environment + cluster."""
        config = config or SimulationConfig()
        env = Environment()
        return env, self.build(env, config)


def two_rack(
    instance: str = "small",
    n_datanodes: int = 9,
    throttle_mbps: Optional[float] = None,
    n_extra_clients: int = 0,
) -> Scenario:
    """§V-B.1: homogeneous cluster on two racks, optional boundary throttle."""

    def build(env: Environment, config: SimulationConfig) -> Cluster:
        cluster = build_homogeneous(
            env,
            instance,
            n_datanodes=n_datanodes,
            config=config,
            n_extra_clients=n_extra_clients,
        )
        if throttle_mbps is not None:
            cluster.throttle_rack_boundary(throttle_mbps)
        return cluster

    label = f"{throttle_mbps:g}Mbps" if throttle_mbps else "default"
    return Scenario(
        name=f"two_rack[{instance},{label}]",
        description=(
            f"{n_datanodes} {instance} datanodes over two racks, "
            f"cross-rack bandwidth {label}"
        ),
        build=build,
    )


def contention(
    instance: str = "small",
    n_datanodes: int = 9,
    n_slow: int = 1,
    slow_mbps: float = 50,
    n_extra_clients: int = 0,
) -> Scenario:
    """§V-B.2: ``n_slow`` datanodes throttled in both directions."""
    if n_slow < 0 or n_slow > n_datanodes:
        raise ValueError("n_slow must be within [0, n_datanodes]")

    def build(env: Environment, config: SimulationConfig) -> Cluster:
        cluster = build_homogeneous(
            env,
            instance,
            n_datanodes=n_datanodes,
            config=config,
            n_extra_clients=n_extra_clients,
        )
        cluster.throttle_datanodes(n_slow, slow_mbps)
        return cluster

    return Scenario(
        name=f"contention[{instance},{n_slow}x{slow_mbps:g}Mbps]",
        description=(
            f"{n_datanodes} {instance} datanodes, {n_slow} of them "
            f"throttled to {slow_mbps:g} Mbps"
        ),
        build=build,
    )


def heterogeneous() -> Scenario:
    """§V-B.3: 3 small + 3 medium + 3 large datanodes, medium namenode."""

    def build(env: Environment, config: SimulationConfig) -> Cluster:
        return build_heterogeneous(env, config=config)

    return Scenario(
        name="heterogeneous",
        description="3 small + 3 medium + 3 large datanodes (medium namenode)",
        build=build,
    )
