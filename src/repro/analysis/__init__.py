"""Analysis: the §III-D cost model, metrics, and sim-vs-model validation."""

from .cost_model import (
    CostParameters,
    harmonic_mean,
    hdfs_time,
    production_bound_time,
    smarth_time,
    smarth_time_refined,
)
from .metrics import ComparisonRow, improvement_percent, summarize_series
from .trace import Journal, TraceEvent
from .validation import ValidationPoint, validate_hdfs, validate_smarth

__all__ = [
    "CostParameters",
    "production_bound_time",
    "hdfs_time",
    "smarth_time",
    "smarth_time_refined",
    "harmonic_mean",
    "ComparisonRow",
    "improvement_percent",
    "summarize_series",
    "ValidationPoint",
    "validate_hdfs",
    "validate_smarth",
    "Journal",
    "TraceEvent",
]
