"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``upload``      Run one upload through hdfs or smarth on a named scenario.
``compare``     Run both systems and print the improvement.
``experiment``  Regenerate one (or all) of the paper's tables/figures.
``scenarios``   List the built-in scenarios.
``chaos``       Run a deterministic chaos campaign with invariant checks.
``trace``       Run a traceable experiment with span tracing and export
                a Perfetto-loadable Chrome trace (plus Gantt/summary).
``serve``       Run the continuous-ingestion multi-tenant service with
                periodic checkpoints; resume from a snapshot file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .experiments import ALL_EXPERIMENTS, experiment_config, run_all
from .faults import report_json, run_campaign
from .hdfs import HdfsDeployment, HdfsReader
from .policy import policy_names
from .smarth import SmarthDeployment
from .units import fmt_rate, fmt_size, fmt_time, parse_duration, parse_size
from .workloads import compare, contention, heterogeneous, run_upload, two_rack
from .workloads.scenarios import Scenario

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    if args.scenario == "two-rack":
        return two_rack(args.instance, throttle_mbps=args.throttle)
    if args.scenario == "contention":
        return contention(
            args.instance, n_slow=args.slow_nodes, slow_mbps=args.slow_mbps
        )
    if args.scenario == "heterogeneous":
        return heterogeneous()
    raise ValueError(f"unknown scenario {args.scenario!r}")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=("two-rack", "contention", "heterogeneous"),
        default="two-rack",
        help="cluster scenario (default: two-rack)",
    )
    parser.add_argument(
        "--instance",
        choices=("small", "medium", "large"),
        default="small",
        help="EC2 instance type for homogeneous scenarios",
    )
    parser.add_argument(
        "--throttle",
        type=float,
        default=None,
        metavar="MBPS",
        help="two-rack boundary throttle in Mbps (default: none)",
    )
    parser.add_argument(
        "--slow-nodes", type=int, default=1, help="contention: slow datanodes"
    )
    parser.add_argument(
        "--slow-mbps", type=float, default=50.0, help="contention: slow rate"
    )
    parser.add_argument(
        "--size", default="1GB", help="upload size (e.g. 512MB, 8GB)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMARTH reproduction: simulated HDFS uploads and the "
        "paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    up = sub.add_parser("upload", help="run one upload")
    _add_scenario_args(up)
    up.add_argument(
        "--system", choices=("hdfs", "smarth"), default="smarth"
    )
    up.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="enable span tracing and write a Chrome trace JSON here",
    )

    roundtrip = sub.add_parser(
        "roundtrip", help="upload then read the file back"
    )
    _add_scenario_args(roundtrip)
    roundtrip.add_argument(
        "--system", choices=("hdfs", "smarth"), default="smarth"
    )

    cmp_parser = sub.add_parser("compare", help="run both systems")
    _add_scenario_args(cmp_parser)

    exp = sub.add_parser("experiment", help="regenerate a paper experiment")
    exp.add_argument(
        "id",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="table/figure id, or 'all'",
    )
    exp.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="file-size scale factor vs the paper's 8 GB points "
        "(default 0.25)",
    )
    exp.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run experiments in a pool of N worker processes "
        "(results are identical to --jobs 1; default 1)",
    )
    exp.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="also write Chrome traces (trace-<id>.json) for requested "
        "experiments that support tracing",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run a seed-driven chaos campaign with durability invariants",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=7,
        help="campaign seed; run i uses sub-seed seed+i (default 7)",
    )
    chaos.add_argument(
        "--runs",
        type=_positive_int,
        default=10,
        metavar="K",
        help="number of randomized fault schedules (default 10)",
    )
    chaos.add_argument(
        "--protocol",
        choices=("hdfs", "smarth", "both"),
        default="both",
        help="which client(s) to run each schedule under (default both)",
    )
    chaos.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="upload-size scale factor for faster smoke runs (default 1.0)",
    )
    chaos.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the JSON report here instead of stdout",
    )
    chaos.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="write one Chrome trace per (run, protocol) into DIR",
    )
    chaos.add_argument(
        "--policy",
        choices=policy_names(),
        default=None,
        help="run every schedule under a registered deployment policy "
        "(default: the built-in default policy)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the continuous-ingestion service with checkpoints",
    )
    serve.add_argument(
        "--tenants", type=_positive_int, default=500,
        help="total tenants across the three default classes (default 500)",
    )
    serve.add_argument(
        "--hours", type=float, default=48.0,
        help="simulated horizon in hours (default 48)",
    )
    serve.add_argument(
        "--checkpoint-every", default="6h", metavar="DUR",
        help="segment length, e.g. 6h, 30m, 3600 (default 6h)",
    )
    serve.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="write ckpt_NNN.pkl snapshots here after each barrier",
    )
    serve.add_argument(
        "--resume", metavar="FILE", default=None,
        help="resume from a snapshot file (ignores the spec flags)",
    )
    serve.add_argument("--seed", type=int, default=20140901)
    serve.add_argument(
        "--protocol", choices=("hdfs", "smarth"), default="smarth"
    )
    serve.add_argument(
        "--datanodes", type=_positive_int, default=6, metavar="N"
    )
    serve.add_argument(
        "--max-inflight", type=_positive_int, default=8,
        help="admission control: concurrent upload bound (default 8)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="admission control: backlog bound; overflow rejects (default 16)",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="inject a seed-derived fault plan into the run",
    )
    serve.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the JSON report here",
    )

    sub.add_parser("scenarios", help="list built-in scenarios")

    from .obs.trace_cmd import TRACEABLE

    trace = sub.add_parser(
        "trace",
        help="run a traced experiment and export a Perfetto-loadable "
        "Chrome trace",
    )
    trace.add_argument(
        "id", choices=sorted(TRACEABLE), help="traceable experiment id"
    )
    trace.add_argument(
        "--seed", type=int, default=0, help="simulation seed (default 0)"
    )
    trace.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="file-size scale factor vs the 1 GB point (default 0.25)",
    )
    trace.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="Chrome trace output path (default trace-<id>.json)",
    )
    trace.add_argument(
        "--gantt",
        metavar="FILE",
        default=None,
        help="also write a text Gantt chart here",
    )
    trace.add_argument(
        "--summary",
        metavar="FILE",
        default=None,
        help="write the metrics summary here instead of stdout",
    )
    return parser


def _cmd_upload(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    size = parse_size(args.size)
    outcome = run_upload(
        scenario,
        args.system,
        size,
        config=experiment_config(),
        observe=args.trace is not None,
    )
    result = outcome.result
    if args.trace is not None:
        from .obs import chrome_trace_json

        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(
                chrome_trace_json(
                    outcome.deployment.tracer,
                    label=f"upload {args.system} {scenario.name}",
                )
            )
        print(f"trace    : {args.trace}")
    print(f"scenario : {scenario.description}")
    print(f"system   : {outcome.system}")
    print(f"size     : {fmt_size(size)}")
    print(f"time     : {fmt_time(result.duration)}")
    print(f"goodput  : {fmt_rate(result.throughput)}")
    print(f"blocks   : {result.n_blocks} "
          f"(max {result.max_concurrent_pipelines} concurrent pipelines)")
    print(f"replicated fully: {outcome.fully_replicated}")
    return 0


def _cmd_roundtrip(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    size = parse_size(args.size)
    config = experiment_config()
    env, cluster = scenario.make(config)
    deployment = (
        SmarthDeployment(cluster)
        if args.system == "smarth"
        else HdfsDeployment(cluster)
    )
    client = deployment.client()
    write = env.run(until=env.process(client.put("/data/file.bin", size)))
    env.run(until=env.now + 1)
    reader = HdfsReader(deployment)
    read = env.run(until=env.process(reader.get("/data/file.bin")))
    print(f"scenario : {scenario.description}")
    print(f"system   : {args.system}")
    print(f"write    : {fmt_time(write.duration)} "
          f"({fmt_rate(write.throughput)})")
    print(f"read     : {fmt_time(read.duration)} "
          f"({fmt_rate(read.throughput)})")
    sources = sorted({s for _, s in read.sources})
    print(f"read from: {', '.join(sources)}")
    print(f"replicated fully: "
          f"{deployment.namenode.file_fully_replicated('/data/file.bin')}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    size = parse_size(args.size)
    hdfs, smarth, improvement = compare(
        scenario, size, config=experiment_config()
    )
    print(f"scenario : {scenario.description}")
    print(f"size     : {fmt_size(size)}")
    print(f"hdfs     : {fmt_time(hdfs.duration)}")
    print(f"smarth   : {fmt_time(smarth.duration)}")
    print(f"improvement: {improvement:.0f}%")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    ids = sorted(ALL_EXPERIMENTS) if args.id == "all" else [args.id]
    results = run_all(scale=args.scale, only=ids, jobs=args.jobs)
    for result in results:
        print(result.to_text())
        print()
    if args.trace is not None:
        from .obs import chrome_trace_json
        from .obs.trace_cmd import TRACEABLE, run_traced

        os.makedirs(args.trace, exist_ok=True)
        for experiment_id in ids:
            if experiment_id not in TRACEABLE:
                continue
            run = run_traced(experiment_id, scale=args.scale)
            out = f"{args.trace}/trace-{experiment_id}.json"
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(
                    chrome_trace_json(run.tracer, label=experiment_id)
                )
            print(f"trace: {out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    protocols = (
        ("hdfs", "smarth") if args.protocol == "both" else (args.protocol,)
    )
    report = run_campaign(
        args.seed,
        args.runs,
        protocols=protocols,
        scale=args.scale,
        trace_dir=args.trace_dir,
        policy=args.policy,
    )
    rendered = report_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)
    verdict = "ALL GREEN" if report["all_green"] else "VIOLATIONS FOUND"
    print(
        f"chaos: {args.runs} schedules x {len(protocols)} protocol(s), "
        f"outcomes={report['outcomes']} -> {verdict}",
        file=sys.stderr,
    )
    return 0 if report["all_green"] else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import chrome_trace_json, render_gantt
    from .obs.trace_cmd import run_traced

    run = run_traced(args.id, seed=args.seed, scale=args.scale)
    out = args.out or f"trace-{args.id}.json"
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(chrome_trace_json(run.tracer, label=args.id))
    print(f"trace: {out}  (load via https://ui.perfetto.dev)", file=sys.stderr)
    if args.gantt is not None:
        with open(args.gantt, "w", encoding="utf-8") as handle:
            handle.write(render_gantt(run.tracer))
        print(f"gantt: {args.gantt}", file=sys.stderr)
    if args.summary is not None:
        with open(args.summary, "w", encoding="utf-8") as handle:
            handle.write(run.summary)
    else:
        print(run.summary, end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import IngestService, ServiceSpec, generate_service_faults

    if args.resume is not None:
        service = IngestService.resume(args.resume)
        print(f"resumed from {args.resume}", file=sys.stderr)
    else:
        horizon = args.hours * 3600.0
        faults = (
            generate_service_faults(args.seed, args.datanodes, horizon)
            if args.chaos
            else ()
        )
        spec = ServiceSpec.default(
            tenants=args.tenants,
            horizon=horizon,
            checkpoint_every=parse_duration(args.checkpoint_every),
            seed=args.seed,
            protocol=args.protocol,
            n_datanodes=args.datanodes,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            faults=faults,
        )
        service = IngestService(spec)
    report = service.run(
        checkpoint_dir=args.checkpoint_dir,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"report: {args.report}", file=sys.stderr)
    counts = report.counts
    print(report.slo_text, end="")
    print()
    print(
        f"arrivals={counts['arrivals']} completed={counts['completed']} "
        f"failed={counts['failed']} rejected={counts['rejected']} "
        f"max_queue={counts['max_queue_depth']}/{counts['queue_limit']}"
    )
    digests = report.digests()
    print(f"journal digest: {digests['journal']}")
    ok = (
        counts["conservation_ok"]
        and counts["queue_bounded"]
        and counts["inflight_bounded"]
    )
    print(f"invariants: {'OK' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    for scenario in (
        two_rack("small", throttle_mbps=100),
        contention("small", n_slow=1),
        heterogeneous(),
    ):
        print(f"{scenario.name:40s} {scenario.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "upload": _cmd_upload,
        "roundtrip": _cmd_roundtrip,
        "compare": _cmd_compare,
        "experiment": _cmd_experiment,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "scenarios": _cmd_scenarios,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
