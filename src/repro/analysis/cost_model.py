"""The paper's §III-D analytic cost model — Formulas (1), (2) and (3).

Notation (all rates bytes/second, times seconds, sizes bytes):

* ``D`` — file size, ``B`` — block size, ``P`` — packet size;
* ``T_n`` — client↔namenode RPC time per block;
* ``T_c`` — packet production time (local read + checksum);
* ``T_w`` — per-packet datanode write time;
* ``B_min`` — minimum bandwidth along the whole pipeline (client→dn1 and
  every dn→dn hop);
* ``B_max`` — bandwidth between the client and the *first* datanode.

Formula (1) — production-bound (``T_c ≥ P/B``)::

    T = T_n * ⌈D/B⌉ + (T_c + T_w) * ⌈D/P⌉

Formula (2) — baseline HDFS, transmission-bound (``T_c < P/B_min``)::

    T = T_n * ⌈D/B⌉ + (P/B_min + T_w) * ⌈D/P⌉

Formula (3) — SMARTH, transmission-bound (``T_c < P/B_max``)::

    T = T_n * ⌈D/B⌉ + (P/B_max + T_w) * ⌈D/P⌉

Two practical notes, both verified by ``benchmarks/bench_cost_model.py``:

* The paper charges ``T_w`` serially per packet; in any real datanode (and
  in our simulator) disk writes overlap transmission, so for comparisons
  against the simulator pass ``t_w=0`` unless the disk genuinely is the
  bottleneck.
* Formula (3) implicitly assumes background pipelines always drain fast
  enough.  :func:`smarth_time_refined` adds the two effects the formula
  abstracts away — the aggregate drain cap ``n_pipelines * drain_rate``
  and first-hop rotation over heterogeneous datanodes (§IV-C forces the
  client to cycle through *all* datanodes, so slow first hops mix in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "CostParameters",
    "production_bound_time",
    "hdfs_time",
    "smarth_time",
    "smarth_time_refined",
    "harmonic_mean",
]


@dataclass(frozen=True)
class CostParameters:
    """Inputs shared by all three formulas."""

    file_size: int
    block_size: int
    packet_size: int
    t_n: float = 1e-3
    t_c: float = 0.0
    t_w: float = 0.0

    def __post_init__(self) -> None:
        if min(self.file_size, self.block_size, self.packet_size) <= 0:
            raise ValueError("sizes must be positive")
        if min(self.t_n, self.t_c, self.t_w) < 0:
            raise ValueError("per-item times must be non-negative")

    @property
    def n_blocks(self) -> int:
        return math.ceil(self.file_size / self.block_size)

    @property
    def n_packets(self) -> int:
        return math.ceil(self.file_size / self.packet_size)


def production_bound_time(p: CostParameters) -> float:
    """Formula (1): the producer is the bottleneck (``T_c ≥ P/B``)."""
    return p.t_n * p.n_blocks + (p.t_c + p.t_w) * p.n_packets


def _transmission_time(p: CostParameters, bandwidth: float) -> float:
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    per_packet = p.packet_size / bandwidth
    if p.t_c >= per_packet:
        return production_bound_time(p)
    return p.t_n * p.n_blocks + (per_packet + p.t_w) * p.n_packets


def hdfs_time(p: CostParameters, b_min: float) -> float:
    """Formula (2): baseline upload time at pipeline bandwidth ``b_min``."""
    return _transmission_time(p, b_min)


def smarth_time(p: CostParameters, b_max: float) -> float:
    """Formula (3): SMARTH upload time at first-hop bandwidth ``b_max``."""
    return _transmission_time(p, b_max)


def harmonic_mean(rates: Sequence[float]) -> float:
    """Effective rate of a rotation over hops with the given rates.

    Sending equal-size blocks to first datanodes of varying bandwidth
    takes ``sum(B/r_i)``, so the effective streaming rate is the harmonic
    mean — the right aggregate for §IV-C's forced rotation.
    """
    rates = [r for r in rates if r > 0]
    if not rates:
        raise ValueError("need at least one positive rate")
    return len(rates) / sum(1.0 / r for r in rates)


def smarth_time_refined(
    p: CostParameters,
    first_hop_rates: Iterable[float],
    drain_rate: float,
    n_pipelines: int,
) -> float:
    """Formula (3) extended with the two real-world caps it abstracts away.

    ``first_hop_rates`` — client→datanode bandwidth of every datanode the
    §IV-C rotation will cycle through; ``drain_rate`` — the bandwidth at
    which one background pipeline completes replication (its slowest
    hop); ``n_pipelines`` — the concurrency cap ``num/repli``.
    """
    if n_pipelines < 1:
        raise ValueError("n_pipelines must be >= 1")
    stream_rate = harmonic_mean(list(first_hop_rates))
    effective = min(stream_rate, n_pipelines * drain_rate)
    return _transmission_time(p, effective)
