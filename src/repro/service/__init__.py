"""repro.service — continuous-ingestion multi-tenant service.

A long-running, open-loop ingest workload on top of the SMARTH/HDFS
simulator: tenant classes generate Poisson (optionally diurnal) upload
arrivals, an admission controller bounds concurrency and queue depth
(overflow is *rejected* and journaled), per-tenant latency lands in
:mod:`repro.obs` histograms, and the whole simulation can be
checkpointed at quiescent barriers and resumed byte-identically
(``python -m repro serve``).
"""

from .admission import AdmissionController
from .arrivals import Arrival, ArrivalStream, MergedArrivals, TenantClassSpec
from .report import ServiceReport
from .service import IngestService, ServiceSpec, generate_service_faults
from .slo import slo_table
from .snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION, load_snapshot, save_snapshot

__all__ = [
    "TenantClassSpec",
    "Arrival",
    "ArrivalStream",
    "MergedArrivals",
    "AdmissionController",
    "ServiceSpec",
    "IngestService",
    "ServiceReport",
    "generate_service_faults",
    "slo_table",
    "save_snapshot",
    "load_snapshot",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
]
