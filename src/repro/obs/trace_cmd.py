"""Traced experiment runners behind ``python -m repro trace <experiment>``.

Each runner replays a pinned, figure-style workload with observability
enabled on *both* clients, then merges the two tracers into one timeline
whose actors are prefixed ``hdfs/…`` and ``smarth/…`` — loading the
exported Chrome JSON into Perfetto shows the baseline and SMARTH uploads
side by side on one clock.

Everything here is seed-deterministic: the same ``(experiment, seed,
scale)`` produces byte-identical exports, which the golden trace test
pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationConfig
from ..units import GB
from .export import metrics_summary
from .metrics import publish_env_health
from .spans import Tracer
from .wellformed import check_wellformed

__all__ = ["TraceRun", "combine", "run_traced", "TRACEABLE"]


@dataclass
class TraceRun:
    """The merged, checked output of one traced experiment."""

    experiment_id: str
    tracer: Tracer
    summary: str
    #: True when the workload legitimately leaves spans open at the end
    #: of the run (e.g. re-replication still copying when it settles).
    allow_open: bool = False


def combine(parts: list[tuple[str, Tracer]]) -> Tracer:
    """Merge tracers onto one timeline, prefixing actors per part.

    Span ids are remapped (parents always carry a lower id than their
    children, so a single begin-order pass suffices); open spans stay
    open in the merged tracer.  Each part's journals are attached, not
    copied, in the parts' order under the prefixed actor
    (``hdfs/journal``, ``smarth/journal``).
    """
    merged = Tracer(enabled=True)
    for prefix, tracer in parts:
        id_map: dict[int, int] = {}
        for span in sorted(tracer.spans(), key=lambda s: s.id):
            new_id = merged.begin(
                span.name,
                f"{prefix}/{span.actor}",
                span.track,
                span.start,
                parent=id_map.get(span.parent, 0),
                **span.args,
            )
            id_map[span.id] = new_id
            if span.end is not None:
                merged.end(new_id, span.end)
        for actor, journal in tracer.journals():
            merged.attach_journal(journal, actor=f"{prefix}/{actor}")
    return merged


def _traced_size(config: SimulationConfig, scale: float) -> int:
    """The fig5 1 GB point scaled down, never below two blocks (so the
    trace always shows pipeline hand-off)."""
    return max(int(GB * scale), 2 * config.hdfs.block_size)


def _run_pair(
    experiment_id: str,
    seed: float,
    scale: float,
    scenario,
    fault_hook=None,
    allow_open: bool = False,
) -> TraceRun:
    from ..experiments.figures import experiment_config
    from ..workloads.upload import run_upload

    parts: list[tuple[str, Tracer]] = []
    summaries: list[str] = []
    for system in ("hdfs", "smarth"):
        config = experiment_config(int(seed))
        outcome = run_upload(
            scenario,
            system,
            _traced_size(config, scale),
            config=config,
            fault_hook=fault_hook,
            observe=True,
        )
        deployment = outcome.deployment
        check_wellformed(deployment.tracer, allow_open=allow_open)
        publish_env_health(deployment.cluster.env, deployment.metrics)
        parts.append((system, deployment.tracer))
        summaries.append(
            f"== {system} ==\n{metrics_summary(deployment.metrics)}"
        )
    return TraceRun(
        experiment_id=experiment_id,
        tracer=combine(parts),
        summary="\n".join(summaries),
        allow_open=allow_open,
    )


def _trace_fig5(seed: int, scale: float) -> TraceRun:
    """Figure 5's throttled small-cluster point, both systems."""
    from ..workloads.scenarios import two_rack

    return _run_pair(
        "fig5", seed, scale, two_rack("small", throttle_mbps=100)
    )


def _trace_faultrec(seed: int, scale: float) -> TraceRun:
    """The fault-recovery run under faultrec's pinned faults
    (:func:`repro.experiments.figures.faultrec_schedule`)."""
    from ..experiments.figures import faultrec_schedule
    from ..workloads.scenarios import two_rack

    # A killed node's re-replication can still be copying when the run
    # settles; those receiver spans legitimately stay open.
    return _run_pair(
        "faultrec", seed, scale, two_rack("small"),
        fault_hook=faultrec_schedule, allow_open=True,
    )


#: Experiments that support ``python -m repro trace <id>``.
TRACEABLE = {
    "fig5": _trace_fig5,
    "faultrec": _trace_faultrec,
}


def run_traced(experiment_id: str, seed: int = 0, scale: float = 0.25) -> TraceRun:
    """Run one traceable experiment; raises KeyError for unknown ids."""
    return TRACEABLE[experiment_id](seed, scale)
