"""Bandwidth throttling — an emulation of the paper's ``tc`` usage.

The paper shapes traffic three ways, all reproduced here as *rules* that
cap the effective rate of a (source, destination) node pair:

* **rack boundary throttling** (§V-B.1): "we throttle the network
  bandwidth of nodes using tc" so that traffic crossing the two-rack
  boundary is limited (50/100/150 Mbps experiments);
* **per-node throttling** (§V-B.2): individual datanodes capped at
  50/150 Mbps in both directions (bandwidth-contention scenario);
* **per-pair caps** — the general mechanism, also useful for tests.

The effective rate of a transfer is the minimum of the endpoint NIC rates
and every matching rule, exactly how nested ``tc htb`` classes compose.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.node import Node

__all__ = ["ThrottleRule", "NodeThrottle", "PairThrottle", "RackBoundaryThrottle", "ThrottleTable"]


class ThrottleRule:
    """Base class: a predicate over (src, dst) plus a rate cap."""

    def __init__(self, rate: float, description: str = ""):
        if rate <= 0:
            raise ValueError(f"throttle rate must be positive, got {rate}")
        self.rate = float(rate)
        self.description = description

    def applies(self, src: "Node", dst: "Node") -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.rate:.0f} B/s {self.description}>"


class NodeThrottle(ThrottleRule):
    """Caps all traffic to or from one node (``tc`` on that VM)."""

    def __init__(self, node_name: str, rate: float):
        super().__init__(rate, f"node={node_name}")
        self.node_name = node_name

    def applies(self, src: "Node", dst: "Node") -> bool:
        return src.name == self.node_name or dst.name == self.node_name


class PairThrottle(ThrottleRule):
    """Caps traffic between one ordered pair of nodes."""

    def __init__(self, src_name: str, dst_name: str, rate: float):
        super().__init__(rate, f"{src_name}->{dst_name}")
        self.src_name = src_name
        self.dst_name = dst_name

    def applies(self, src: "Node", dst: "Node") -> bool:
        return src.name == self.src_name and dst.name == self.dst_name


class RackBoundaryThrottle(ThrottleRule):
    """Caps any traffic whose endpoints sit in different racks.

    This reproduces the paper's two-rack scenario: intra-rack traffic runs
    at NIC speed, inter-rack traffic at the throttle rate.
    """

    def __init__(self, rate: float):
        super().__init__(rate, "cross-rack")

    def applies(self, src: "Node", dst: "Node") -> bool:
        return src.rack != dst.rack


class ThrottleTable:
    """The set of active throttle rules for a cluster.

    Listeners subscribed via :meth:`subscribe` are called after every rule
    change; packet trains use this to re-plan the part of their timeline
    not yet issued.  In-flight transfers keep the rate they were quoted.
    """

    def __init__(self) -> None:
        self._rules: list[ThrottleRule] = []
        #: Listeners in subscription order (a dict used as an ordered
        #: set, so removing one is O(1)).
        self._listeners: dict[Callable[["ThrottleTable"], None], None] = {}

    @property
    def rules(self) -> tuple[ThrottleRule, ...]:
        return tuple(self._rules)

    def subscribe(self, listener: Callable[["ThrottleTable"], None]) -> None:
        """Call ``listener(table)`` after every add/remove of a rule."""
        self._listeners[listener] = None

    def unsubscribe(self, listener: Callable[["ThrottleTable"], None]) -> None:
        """Remove a previously subscribed listener (no-op if absent).

        Packet trains subscribe for the lifetime of one block; without
        removal every settled train would leak a dead listener into every
        later rule change.
        """
        self._listeners.pop(listener, None)

    def _notify(self) -> None:
        # A snapshot: a listener may unsubscribe while being notified.
        for listener in tuple(self._listeners):
            listener(self)

    def add(self, rule: ThrottleRule) -> "ThrottleTable":
        self._rules.append(rule)
        self._notify()
        return self

    def remove_matching(self, matches: Callable[[ThrottleRule], bool]) -> int:
        """Drop the rules ``matches`` accepts; returns how many were removed."""
        kept = [r for r in self._rules if not matches(r)]
        removed = len(self._rules) - len(kept)
        self._rules = kept
        if removed:
            self._notify()
        return removed

    def effective_rate(self, src: "Node", dst: "Node") -> float:
        """min(src NIC, dst NIC, all matching rules) in bytes/second."""
        rate = min(src.nic.rate, dst.nic.rate)
        for rule in self._rules:
            if rule.applies(src, dst):
                rate = min(rate, rule.rate)
        return rate

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThrottleTable {self._rules!r}>"
