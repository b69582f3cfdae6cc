"""Experiment drivers — one function per table/figure of the paper's §V.

Each driver runs the same workload the paper measured (scaled by
``scale`` when exploratory speed matters more than full 8 GB fidelity)
and returns an :class:`~repro.experiments.report.ExperimentResult` whose
rows are the exact series the figure plots, with the paper's numeric
claims attached for side-by-side comparison.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.metrics import ComparisonRow
from ..cluster.instance import INSTANCE_CATALOG
from ..config import SimulationConfig
from ..units import GB, MB, to_gigabytes, to_mbps
from ..workloads.scenarios import contention, heterogeneous, two_rack
from ..workloads.sweep import size_sweep, sweep
from ..workloads.upload import run_upload
from .paper_data import PAPER_CLAIMS
from .report import ExperimentResult

__all__ = [
    "experiment_config",
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "faultrec",
    "faultrec_schedule",
    "ALL_EXPERIMENTS",
]

#: Simulation packet granularity for the 1–8 GB experiment runs; packet-
#: level dynamics are granularity-stable (bench_ablation_granularity).
EXPERIMENT_PACKET = 4 * MB


def experiment_config(seed: int = 20140901) -> SimulationConfig:
    """The configuration every §V experiment runs under."""
    return SimulationConfig(seed=seed).with_hdfs(packet_size=EXPERIMENT_PACKET)


def _scaled(size_gb: float, scale: float) -> int:
    return max(int(size_gb * scale * GB), 64 * MB)


def _rows_to_dicts(rows: Sequence[ComparisonRow]) -> list[dict]:
    return [r.as_dict() for r in rows]


# ---------------------------------------------------------------------------
def table1() -> ExperimentResult:
    """Table I: the EC2 instance catalog the evaluation runs on."""
    rows = [
        {
            "instance": name,
            "memory_gb": round(to_gigabytes(itype.memory), 2),
            "ecus": itype.ecus,
            "network_mbps": round(to_mbps(itype.network_rate)),
        }
        for name, itype in INSTANCE_CATALOG.items()
    ]
    return ExperimentResult(
        experiment_id="table1",
        title="Amazon EC2 instance types",
        columns=("instance", "memory_gb", "ecus", "network_mbps"),
        rows=rows,
        paper_claim=PAPER_CLAIMS["table1"],
        measured={r["instance"]: f"{r['network_mbps']}Mbps" for r in rows},
    )


def fig5(
    config: Optional[SimulationConfig] = None,
    scale: float = 1.0,
    sizes_gb: Sequence[float] = (1, 2, 4, 8),
    instances: Sequence[str] = ("small", "medium", "large"),
    throttle_mbps: float = 100,
) -> ExperimentResult:
    """Figure 5(a)-(f): upload time vs file size, default vs throttled."""
    config = config or experiment_config()
    rows: list[dict] = []
    for instance in instances:
        for throttled in (False, True):
            scenario = two_rack(
                instance, throttle_mbps=throttle_mbps if throttled else None
            )
            series = size_sweep(
                scenario,
                [_scaled(g, scale) for g in sizes_gb],
                config=config,
            )
            for size_gb, row in zip(sizes_gb, series):
                rows.append(
                    {
                        "instance": instance,
                        "network": f"{throttle_mbps:g}Mbps" if throttled else "default",
                        "size_gb": round(size_gb * scale, 3),
                        "hdfs_s": round(row.hdfs_seconds, 1),
                        "smarth_s": round(row.smarth_seconds, 1),
                        "improvement_pct": round(row.improvement, 1),
                    }
                )

    # Measured linearity: time(max size) / time(min size) vs size ratio.
    measured = {}
    for instance in instances:
        subset = [
            r
            for r in rows
            if r["instance"] == instance and r["network"] == "default"
        ]
        if len(subset) >= 2:
            ratio = subset[-1]["hdfs_s"] / subset[0]["hdfs_s"]
            size_ratio = subset[-1]["size_gb"] / subset[0]["size_gb"]
            measured[f"{instance}_time_ratio"] = round(ratio, 2)
            measured[f"{instance}_size_ratio"] = round(size_ratio, 2)
    return ExperimentResult(
        experiment_id="fig5",
        title="Uploading time vs file size, with and without throttling",
        columns=(
            "instance",
            "network",
            "size_gb",
            "hdfs_s",
            "smarth_s",
            "improvement_pct",
        ),
        rows=rows,
        paper_claim=PAPER_CLAIMS["fig5"],
        measured=measured,
    )


def _throttle_figure(
    experiment_id: str,
    cluster: str,
    config: Optional[SimulationConfig],
    scale: float,
    throttles: Sequence[Optional[float]],
    size_gb: float,
) -> ExperimentResult:
    config = config or experiment_config()
    rows = sweep(
        scenario_for=lambda t: two_rack(cluster, throttle_mbps=t),
        xs=list(throttles),
        size=_scaled(size_gb, scale),
        config=config,
        label_for=lambda t: f"{t:g}Mbps" if t else "default",
    )
    claims = PAPER_CLAIMS[experiment_id]
    measured = {
        row.label: f"{row.improvement:.0f}%" for row in rows
    }
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"{cluster} cluster: upload time vs cross-rack throttle (8 GB)",
        columns=("label", "hdfs_s", "smarth_s", "improvement_pct"),
        rows=_rows_to_dicts(rows),
        paper_claim=claims,
        measured=measured,
    )


def fig6(config=None, scale: float = 1.0, throttles=(50, 100, 150, None)) -> ExperimentResult:
    """Figure 6: small cluster, throttle sweep (paper: 130% @50, 27% @150)."""
    return _throttle_figure("fig6", "small", config, scale, throttles, 8)


def fig7(config=None, scale: float = 1.0, throttles=(50, 100, 150, None)) -> ExperimentResult:
    """Figure 7: medium cluster, throttle sweep (paper: 225% @50)."""
    return _throttle_figure("fig7", "medium", config, scale, throttles, 8)


def fig8(config=None, scale: float = 1.0, throttles=(50, 100, 150, None)) -> ExperimentResult:
    """Figure 8: large cluster, throttle sweep (paper: 245% @50)."""
    return _throttle_figure("fig8", "large", config, scale, throttles, 8)


def fig9(
    config=None,
    scale: float = 1.0,
    throttles=(50, 100, 150),
    clusters=("small", "medium", "large"),
) -> ExperimentResult:
    """Figure 9: improvement vs throttle level for all three clusters."""
    config = config or experiment_config()
    rows: list[dict] = []
    measured: dict = {}
    for cluster in clusters:
        series = sweep(
            scenario_for=lambda t, c=cluster: two_rack(c, throttle_mbps=t),
            xs=list(throttles),
            size=_scaled(8, scale),
            config=config,
            label_for=lambda t: f"{t:g}",
        )
        improvements = []
        for throttle, row in zip(throttles, series):
            rows.append(
                {
                    "cluster": cluster,
                    "throttle_mbps": throttle,
                    "improvement_pct": round(row.improvement, 1),
                }
            )
            improvements.append(row.improvement)
        measured[f"{cluster}_monotone_decreasing"] = all(
            a >= b for a, b in zip(improvements, improvements[1:])
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Improvement vs bandwidth throttling (all clusters)",
        columns=("cluster", "throttle_mbps", "improvement_pct"),
        rows=rows,
        paper_claim=PAPER_CLAIMS["fig9"],
        measured=measured,
    )


def _contention_figure(
    experiment_id: str,
    clusters: Sequence[str],
    slow_mbps: float,
    config: Optional[SimulationConfig],
    scale: float,
    ks: Sequence[int],
) -> ExperimentResult:
    config = config or experiment_config()
    rows: list[dict] = []
    measured: dict = {}
    for cluster in clusters:
        series = sweep(
            scenario_for=lambda k, c=cluster: contention(
                c, n_slow=k, slow_mbps=slow_mbps
            ),
            xs=list(ks),
            size=_scaled(8, scale),
            config=config,
            label_for=str,
        )
        for k, row in zip(ks, series):
            rows.append(
                {
                    "cluster": cluster,
                    "slow_nodes": k,
                    "hdfs_s": round(row.hdfs_seconds, 1),
                    "smarth_s": round(row.smarth_seconds, 1),
                    "improvement_pct": round(row.improvement, 1),
                }
            )
            if k == 1:
                measured[f"{cluster}_k1"] = f"{row.improvement:.0f}%"
    return ExperimentResult(
        experiment_id=experiment_id,
        title=(
            f"{'/'.join(clusters)} cluster(s): upload time vs number of "
            f"{slow_mbps:g} Mbps datanodes (8 GB)"
        ),
        columns=("cluster", "slow_nodes", "hdfs_s", "smarth_s", "improvement_pct"),
        rows=rows,
        paper_claim=PAPER_CLAIMS[experiment_id],
        measured=measured,
    )


def fig10(config=None, scale: float = 1.0, ks=(0, 1, 2, 3, 4, 5)) -> ExperimentResult:
    """Figure 10: small cluster, 50 Mbps slow-node sweep (paper: 78% @k=1)."""
    return _contention_figure("fig10", ("small",), 50, config, scale, ks)


def fig11(config=None, scale: float = 1.0, ks=(0, 1, 2, 3, 4, 5)) -> ExperimentResult:
    """Figure 11: medium/large clusters, 50 Mbps slow nodes (167% @k=1 medium)."""
    return _contention_figure("fig11", ("medium", "large"), 50, config, scale, ks)


def fig12(config=None, scale: float = 1.0, ks=(0, 1, 2, 3, 4, 5)) -> ExperimentResult:
    """Figure 12: small/medium clusters, 150 Mbps slow nodes (19%/59% @k=1)."""
    return _contention_figure("fig12", ("small", "medium"), 150, config, scale, ks)


def fig13(
    config=None, scale: float = 1.0, sizes_gb: Sequence[float] = (1, 2, 4, 8)
) -> ExperimentResult:
    """Figure 13: heterogeneous cluster, time vs size (289 s vs 205 s @8 GB)."""
    config = config or experiment_config()
    series = size_sweep(
        heterogeneous(),
        [_scaled(g, scale) for g in sizes_gb],
        config=config,
    )
    rows = [
        {
            "size_gb": round(g * scale, 3),
            "hdfs_s": round(row.hdfs_seconds, 1),
            "smarth_s": round(row.smarth_seconds, 1),
            "improvement_pct": round(row.improvement, 1),
        }
        for g, row in zip(sizes_gb, series)
    ]
    last = rows[-1]
    return ExperimentResult(
        experiment_id="fig13",
        title="Heterogeneous cluster: upload time vs data size",
        columns=("size_gb", "hdfs_s", "smarth_s", "improvement_pct"),
        rows=rows,
        paper_claim=PAPER_CLAIMS["fig13"],
        measured={
            "hdfs_s_at_max": last["hdfs_s"],
            "smarth_s_at_max": last["smarth_s"],
            "improvement_at_max": f"{last['improvement_pct']:.0f}%",
        },
    )


def faultrec_schedule(injector) -> None:
    """faultrec's fixed faults: one mid-pipeline kill at t=1 s plus one
    50 Mbps throttle on ``dn1`` at t=3 s (the paper's §III-B fault model,
    pinned for golden-result testing)."""
    injector.kill_busy_at(at=1.0, pick=1)
    injector.throttle_at("dn1", 50.0, at=3.0)


def faultrec(
    config=None, scale: float = 1.0, size_gb: float = 1.0
) -> ExperimentResult:
    """Fault recovery under a fixed schedule (:func:`faultrec_schedule`)."""
    config = config or experiment_config()
    size = _scaled(size_gb, scale)
    scenario = two_rack("small")

    rows = []
    for system in ("hdfs", "smarth"):
        outcome = run_upload(
            scenario, system, size, config=config, fault_hook=faultrec_schedule
        )
        rows.append(
            {
                "system": system,
                "time_s": round(outcome.duration, 1),
                "recoveries": outcome.result.recoveries,
                "max_pipelines": outcome.result.max_concurrent_pipelines,
                "fully_replicated": outcome.fully_replicated,
                "killed": ",".join(outcome.injected_faults),
            }
        )
    return ExperimentResult(
        experiment_id="faultrec",
        title="Pipeline recovery under a fixed kill + throttle schedule",
        columns=(
            "system",
            "time_s",
            "recoveries",
            "max_pipelines",
            "fully_replicated",
            "killed",
        ),
        rows=rows,
        paper_claim=PAPER_CLAIMS["faultrec"],
        measured={
            "hdfs_recoveries": rows[0]["recoveries"],
            "smarth_recoveries": rows[1]["recoveries"],
        },
    )


#: Registry used by the benchmark harness and EXPERIMENTS.md generator.
ALL_EXPERIMENTS = {
    "table1": table1,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "faultrec": faultrec,
}
