"""Parameter sweeps: one :class:`ComparisonRow` per x-axis point.

Every figure in the paper's evaluation is a sweep of upload-time pairs
over some knob (file size, throttle level, slow-node count); this module
is the single driver all of them share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from ..analysis.metrics import ComparisonRow
from ..config import SimulationConfig
from .scenarios import Scenario
from .upload import compare

__all__ = ["sweep", "size_sweep"]


def _point(
    scenario: Scenario,
    size: int | str,
    config: Optional[SimulationConfig],
    label: str,
) -> ComparisonRow:
    """One x-axis point: the :func:`compare` pair, both fully replicated."""
    hdfs, smarth, _ = compare(scenario, size, config=config)
    if not (hdfs.fully_replicated and smarth.fully_replicated):
        raise RuntimeError(f"{scenario.name}: upload finished under-replicated")
    return ComparisonRow(
        label=label,
        hdfs_seconds=hdfs.duration,
        smarth_seconds=smarth.duration,
    )


def sweep(
    scenario_for: Callable[[object], Scenario],
    xs: Iterable[object],
    size: int | str,
    config: Optional[SimulationConfig] = None,
    label_for: Optional[Callable[[object], str]] = None,
) -> list[ComparisonRow]:
    """Run HDFS vs SMARTH at every x; scenario rebuilt per point."""
    return [
        _point(scenario_for(x), size, config, label_for(x) if label_for else str(x))
        for x in xs
    ]


def size_sweep(
    scenario: Scenario,
    sizes: Sequence[int | str],
    config: Optional[SimulationConfig] = None,
) -> list[ComparisonRow]:
    """Fixed scenario, varying file size (the Figure 5 / 13 shape)."""
    return [_point(scenario, size, config, str(size)) for size in sizes]
