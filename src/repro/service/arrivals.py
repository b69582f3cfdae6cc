"""Open-loop arrival processes for the ingest service.

Each tenant *class* (interactive / batch / bulk, say) aggregates its
tenants into one Poisson arrival stream: with ``tenants`` tenants each
uploading every ``mean_interarrival`` seconds on average, the class-level
rate is ``tenants / mean_interarrival``.  A class may additionally be
*diurnal* — its rate follows ``base * (1 + amplitude * sin(2πt/period))``
and arrivals are drawn by Lewis–Shedler thinning against the peak rate,
which keeps the stream exact (not binned) and still deterministic per
seed.

Streams are resumable: their whole state is the RNG state plus the
precomputed next arrival, so a checkpoint taken between arrivals restores
the identical future sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..rng import substream

__all__ = ["TenantClassSpec", "Arrival", "ArrivalStream", "MergedArrivals"]


@dataclass(frozen=True)
class TenantClassSpec:
    """One tenant class: population, traffic shape and SLO target."""

    name: str
    #: Number of tenants in the class.
    tenants: int
    #: Mean seconds between uploads *per tenant*.
    mean_interarrival: float
    #: Upload size in bytes.
    size: int
    #: Latency SLO (seconds, arrival → completion); exceeding it counts
    #: one violation.
    slo: float
    #: Diurnal modulation amplitude in [0, 1): 0 is a flat Poisson
    #: stream, 0.8 swings the rate between 0.2× and 1.8× the base.
    diurnal_amplitude: float = 0.0
    #: Diurnal period in seconds (one simulated day by default).
    diurnal_period: float = 86400.0

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.slo <= 0:
            raise ValueError("slo must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")

    @property
    def base_rate(self) -> float:
        """Class-aggregate arrival rate (uploads/second)."""
        return self.tenants / self.mean_interarrival

    @property
    def peak_rate(self) -> float:
        return self.base_rate * (1.0 + self.diurnal_amplitude)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at simulated time ``t``."""
        if self.diurnal_amplitude == 0.0:
            return self.base_rate
        phase = 2.0 * math.pi * t / self.diurnal_period
        return self.base_rate * (1.0 + self.diurnal_amplitude * math.sin(phase))


@dataclass(frozen=True)
class Arrival:
    """One upload request entering the service."""

    at: float
    cls: str
    cls_index: int
    #: Global tenant index (stable across classes; routes the client host).
    tenant_index: int
    #: Tenant id, e.g. ``interactive-0007``.
    tenant: str
    size: int
    #: Per-tenant upload sequence number (unique path per upload).
    seq: int


class ArrivalStream:
    """Resumable thinned-Poisson arrival stream for one tenant class."""

    def __init__(self, spec: TenantClassSpec, cls_index: int, seed: int,
                 tenant_base: int):
        self.spec = spec
        self.cls_index = cls_index
        #: First global tenant index of this class.
        self.tenant_base = tenant_base
        self.rng = substream(seed, "arrivals", spec.name)
        self.count = 0
        #: Precomputed time of the next arrival (eager, so stream state
        #: is always "RNG + next_at" and never mid-draw at a snapshot).
        self.next_at = self._draw(0.0)

    # ------------------------------------------------------------------
    def _draw(self, after: float) -> float:
        """Next arrival strictly after ``after`` (Lewis–Shedler thinning)."""
        spec = self.spec
        peak = spec.peak_rate
        t = after
        while True:
            t += self.rng.expovariate(peak)
            if spec.diurnal_amplitude == 0.0:
                return t
            if self.rng.random() * peak <= spec.rate_at(t):
                return t

    def pop(self, seq_of) -> Arrival:
        """Consume the next arrival; ``seq_of(tenant)`` assigns its seq."""
        at = self.next_at
        tenant_offset = self.rng.randrange(self.spec.tenants)
        tenant = f"{self.spec.name}-{tenant_offset:04d}"
        arrival = Arrival(
            at=at,
            cls=self.spec.name,
            cls_index=self.cls_index,
            tenant_index=self.tenant_base + tenant_offset,
            tenant=tenant,
            size=self.spec.size,
            seq=seq_of(tenant),
        )
        self.count += 1
        self.next_at = self._draw(at)
        return arrival


class MergedArrivals:
    """Deterministic merge of the per-class streams by (time, class)."""

    def __init__(self, classes, seed: int):
        self.streams: list[ArrivalStream] = []
        base = 0
        for i, spec in enumerate(classes):
            self.streams.append(ArrivalStream(spec, i, seed, base))
            base += spec.tenants
        #: Per-tenant upload sequence counters (unique upload paths).
        self._seq: dict[str, int] = {}

    def _seq_of(self, tenant: str) -> int:
        seq = self._seq.get(tenant, 0)
        self._seq[tenant] = seq + 1
        return seq

    def peek(self) -> float:
        """Time of the earliest pending arrival."""
        return min(s.next_at for s in self.streams)

    def pop(self) -> Arrival:
        """Consume the earliest pending arrival (class index breaks ties)."""
        best = min(self.streams, key=lambda s: (s.next_at, s.cls_index))
        return best.pop(self._seq_of)

    @property
    def total(self) -> int:
        return sum(s.count for s in self.streams)
