"""The ledger: one benchmark for the whole simulator, end to end and by layer.

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE]
    python3 benchmarks/ledger/run.py --compare BASE.json HEAD.json

Without ``--workload`` all four workloads run, their reps interleaved
round-robin.  Every rep is a fresh, single-threaded ``rep.py`` process,
started one at a time; this process only starts them and collects their
results.  Each workload gets reps until its reps have used ``--seconds``
(at least three untraced ones); host metrics are reported as the median
and quartiles of the untraced reps, ``wall_s`` summed part by part (see
:func:`partwise`), and host times in seconds on the reference host (see
``host.py``).  With ``--trace 1`` each workload
first runs one profiled rep, which gives the per-layer ledger and counts
against the budget.

Every metric is printed as ``workload metric value unit``; the last line
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``)
holding the ``end_to_end`` metrics of ``BENCHMARK.json``, or with
``--trace 1`` its ``per_layer`` ones.  ``--out`` writes the full
envelope: manifest, end-to-end block, layer block, checks and the digest
of each workload's simulated output.  The exit code is non-zero when an
output check fails or a workload's reps disagree on their digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Fewest reps a median is taken over, whatever ``--seconds`` says.
MIN_REPS = 3
#: A rep that runs longer than this has hung (the slowest, a traced
#: chaos rep, takes under 20 s).
REP_TIMEOUT_S = 120
#: Host metrics measured in every rep, with their units.
HOST_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Units of the deterministic end-to-end metrics (simulated or counted).
SIM_UNITS = {
    "sim_write_p50_s": "sim_s",
    "sim_write_tail_s": "sim_s",
    "sim_read_p50_s": "sim_s",
    "sim_read_tail_s": "sim_s",
    "paper_err_pct": "%",
    "failed_frac": "ratio",
    "slo_miss_frac": "ratio",
}
#: Layer counters that workloads read off their own outputs.
OUTPUT_COUNTS = (
    "faults.invariant_checks",
    "faults.violations",
    "service.arrivals",
    "service.max_queue_depth",
    "service.max_inflight",
)


class RepFailed(RuntimeError):
    """A rep exited non-zero, hung, printed no result, or timed its parts
    differently from the other reps."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One thread per rep: no BLAS pools, and one hash seed for every rep.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, trace: bool) -> dict:
    """Run one rep in a fresh process and return its parsed record."""
    cmd = [sys.executable, str(HERE / "rep.py"), workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise RepFailed(f"{workload}: rep exceeded {REP_TIMEOUT_S} s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepFailed(
            f"{workload}: rep exited {proc.returncode}\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(names, seed: int, seconds: float, trace: bool) -> dict:
    """The traced reps first, if asked for, then untraced reps round-robin
    until each workload's budget is spent.

    The traced rep counts against its workload's budget.  A workload
    stops once it has ``MIN_REPS`` untraced reps and one more of their
    mean length would overrun ``seconds``.
    """
    traced, traced_s = {}, dict.fromkeys(names, 0.0)
    for name in names if trace else ():
        started = time.perf_counter()
        traced[name] = spawn(name, seed, trace=True)
        traced_s[name] = time.perf_counter() - started
    reps = {name: [] for name in names}
    untraced_s = dict.fromkeys(names, 0.0)
    pending = list(names)
    while pending:
        for name in list(pending):
            started = time.perf_counter()
            reps[name].append(spawn(name, seed, trace=False))
            untraced_s[name] += time.perf_counter() - started
            mean = untraced_s[name] / len(reps[name])
            spent = traced_s[name] + untraced_s[name]
            if len(reps[name]) >= MIN_REPS and spent + mean > seconds:
                pending.remove(name)
    return {name: (reps[name], traced.get(name)) for name in names}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def partwise(parts: list) -> tuple:
    """Median, q1 and q3 of a run's time, summed part by part over reps.

    Host slowdowns come in bursts of about a second, which land in a few
    parts of one rep; a part's median over the reps skips them unless
    they hit that part in most reps.
    """
    if len({len(p) for p in parts}) != 1:
        raise RepFailed(f"reps timed different numbers of parts: {parts}")
    columns = list(zip(*parts))
    median = sum(statistics.median(c) for c in columns)
    q1, q3 = (sum(q) for q in zip(*(quartiles(list(c)) for c in columns)))
    return median, q1, q3


def host_scale(reps: list) -> float:
    """The factor that turns these reps' host seconds into seconds on the
    reference host (see ``host.py``).

    The host switches between fast and slow states every few seconds, and
    a part's time averages over the states it meets; the mean kernel time
    averages the same way, where a median would pick one state.
    """
    samples = [s for rep in reps for s in rep["reference_s"]]
    return host.REFERENCE_S / statistics.fmean(samples)


def end_to_end(reps: list) -> dict:
    """Host metrics as median/quartiles, times in reference-host seconds
    (``wall_s`` part by part); simulated ones from the first rep (every
    rep of one seed simulates the same thing)."""
    scale = host_scale(reps)
    out = {}
    for metric, unit in HOST_METRICS.items():
        values = [rep[metric] for rep in reps]
        if metric == "wall_s":
            median, q1, q3 = partwise([rep["parts_s"] for rep in reps])
        else:
            median, (q1, q3) = statistics.median(values), quartiles(values)
        factor = scale if unit == "s" else 1.0
        out[metric] = {
            "unit": unit,
            "median": median * factor,
            "q1": q1 * factor,
            "q3": q3 * factor,
            "samples": [v * factor for v in values],
        }
        if unit == "s":
            out[metric]["host_median"] = median
    first = reps[0]
    exact = {}
    for kind in ("write", "read"):
        summary = first[f"{kind}s"]
        if summary:
            exact[f"sim_{kind}_p50_s"] = {"value": summary["p50"], "n": summary["n"]}
        if "tail" in summary:
            exact[f"sim_{kind}_tail_s"] = {
                "value": summary["tail"],
                "percentile": summary["tail_pct"],
                "n": summary["n"],
            }
    for metric, value in first["extra"].items():
        exact[metric] = {"value": value}
    exact["failed_frac"] = {"value": first["failed"] / first["attempted"]}
    for metric, entry in exact.items():
        entry["unit"] = SIM_UNITS[metric]
    return {**out, **exact}


def layer_block(traced: dict, wall_median: float) -> dict:
    """The per-layer metrics of one traced rep, as ``{name: value}``;
    ``wall_median`` is the untraced ``wall_s`` in reference-host seconds."""
    ledger = traced["layers"]
    total = ledger["total_s"]
    out = {}
    for layer, self_s in ledger["self_s"].items():
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / total
    out["unattributed.share"] = ledger["unattributed_s"] / total
    out["trace_overhead"] = traced["wall_s"] * host_scale([traced]) / wall_median
    out["sim.events"] = traced["events"]
    out["sim.us_per_event"] = wall_median * 1e6 / traced["events"]
    out.update(ledger["calls"])
    out.update(ledger["probes"])
    for name in OUTPUT_COUNTS:
        out[name] = traced["counts"].get(name, 0)
    return out


def summarize(reps: list, traced) -> dict:
    everything = reps + ([traced] if traced else [])
    digests = {rep["digest"] for rep in everything}
    checks = {
        name: all(rep["checks"][name] for rep in everything)
        for name in reps[0]["checks"]
    }
    checks["deterministic"] = len(digests) == 1
    e2e = end_to_end(reps)
    return {
        "reps": len(reps),
        "attempted": sum(rep["attempted"] for rep in everything),
        "failed": sum(rep["failed"] for rep in everything),
        "checks": checks,
        "correct": all(checks.values()),
        "digest": reps[0]["digest"],
        "host_scale": host_scale(reps),
        "end_to_end": e2e,
        "layers": layer_block(traced, e2e["wall_s"]["median"]) if traced else {},
    }


def print_lines(summaries: dict, units: dict) -> None:
    for name, summary in summaries.items():
        for metric, entry in summary["end_to_end"].items():
            if "median" in entry:
                host_note = (
                    f", host {entry['host_median']:.6g}"
                    if "host_median" in entry
                    else ""
                )
                print(
                    f"{name} {metric} {entry['median']:.6g} {entry['unit']}"
                    f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g},"
                    f" n {len(entry['samples'])}{host_note})"
                )
            else:
                note = (
                    f"  (p{entry['percentile']:.1f}, n {entry['n']})"
                    if "percentile" in entry
                    else ""
                )
                print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}{note}")
        print(f"{name} host_scale {summary['host_scale']:.6g} ratio")
        for metric, value in summary["layers"].items():
            print(f"{name} {metric} {value:.6g} {units[metric]}")
        for check, ok in summary["checks"].items():
            print(f"{name} check.{check} {'ok' if ok else 'FAILED'} -")
        print(f"{name} digest {summary['digest']} sha256")


def result_line(summaries: dict, spec: dict, trace: bool) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for name, summary in summaries.items():
        prefix = "" if len(summaries) == 1 else f"{name}/"
        for metric in declared:
            key = metric["name"]
            if trace:
                value = summary["layers"][key]
            else:
                value = summary["end_to_end"][key]["median"]
            metrics[prefix + key] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def manifest(args) -> dict:
    sha = None  # a source tree without its git metadata
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    is_gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "gil_enabled": is_gil_enabled(),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


# -- compare ----------------------------------------------------------------
def host_verdict(base: dict, head: dict, bound: float) -> str:
    """better / same / worse against ``bound`` (lower is better); when
    either side's quartile spread exceeds the bound the medians cannot
    be told apart, so only disjoint samples decide."""
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (base, head)
    )
    if spread > bound:
        if max(head["samples"]) < min(base["samples"]):
            return "better"
        if min(head["samples"]) > max(base["samples"]):
            return "worse"
        return "unresolved"
    delta = head["median"] / base["median"] - 1.0
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "same"


def exact_verdict(base: float, head: float) -> str:
    if head == base:
        return "same"
    return "better" if head < base else "worse"


def compare(base_path: str, head_path: str, spec: dict) -> int:
    """One row per (workload, metric) and a digest row per workload.

    Host metrics are judged against their ``BENCHMARK.json`` bound;
    simulated and counted metrics are deterministic, so any change is a
    verdict.  Returns 1 when anything got worse or a digest differs.
    """
    base = json.loads(Path(base_path).read_text())["workloads"]
    head = json.loads(Path(head_path).read_text())["workloads"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    print(f"{'workload':9} {'metric':17} {'base':>28} {'head':>28}  verdict")
    for name in [w for w in base if w in head]:
        b_e2e, h_e2e = base[name]["end_to_end"], head[name]["end_to_end"]
        for metric in [m for m in b_e2e if m in h_e2e]:
            b, h = b_e2e[metric], h_e2e[metric]
            if "median" in b:
                verdict = host_verdict(b, h, bounds[metric])
                cells = [
                    f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                    for s in (b, h)
                ]
            else:
                verdict = exact_verdict(b["value"], h["value"])
                cells = [f"{s['value']:.6g}" for s in (b, h)]
            bad += verdict == "worse"
            print(f"{name:9} {metric:17} {cells[0]:>28} {cells[1]:>28}  {verdict}")
        same = base[name]["digest"] == head[name]["digest"]
        bad += not same
        print(
            f"{name:9} {'digest':17} {base[name]['digest'][:12]:>28} "
            f"{head[name]['digest'][:12]:>28}  {'same' if same else 'MISMATCH'}"
        )
    return 1 if bad else 0


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=20140901)
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="measuring budget per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the JSON envelope here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    selected = [args.workload] if args.workload else names
    try:
        runs = measure(selected, args.seed, args.seconds, bool(args.trace))
        summaries = {name: summarize(*runs[name]) for name in selected}
    except RepFailed as err:
        print(err, file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print_lines(summaries, units)
    if args.out:
        envelope = {"manifest": manifest(args), "workloads": summaries}
        Path(args.out).write_text(json.dumps(envelope, indent=1, sort_keys=True) + "\n")
    result = result_line(summaries, spec, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
