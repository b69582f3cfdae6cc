"""One rep of one workload, in the fresh process ``run.py`` starts for it.

    python rep.py WORKLOAD --seed N [--trace]

(with ``src`` and this directory importable).  Prints one JSON line:
the rep's host timings (whole run, per part, and the host reference
kernel around the run), its simulated summaries, checks and digest and,
with ``--trace``, the per-layer attribution of a profiled run, whose
parts are not timed.
"""

import time

START = time.perf_counter()  # setup_s counts from here: before import repro

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import host  # noqa: E402
import layers  # noqa: E402
from repro.sim import total_events_processed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The tail sample is the highest one with at least this many beyond it.
TAIL_BEYOND = 10


def summarize_durations(samples: list) -> dict:
    """Median and tail of simulated durations, with the tail's percentile.

    The tail is reported only when it lies above the median.
    """
    if not samples:
        return {}
    ordered = sorted(samples)
    n = len(ordered)
    out = {"p50": statistics.median(ordered), "n": n}
    if n > 2 * TAIL_BEYOND:
        out["tail"] = ordered[n - TAIL_BEYOND - 1]
        out["tail_pct"] = 100.0 * (n - TAIL_BEYOND) / n
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - START

    # The host's speed, sampled on both sides of the run.
    reference_s = host.reference_samples()
    events_before = total_events_processed()
    marks = [time.perf_counter()]
    if args.trace:
        outcome, ledger = layers.profiled(run, inputs)
    else:
        outcome = run(inputs, lambda: marks.append(time.perf_counter()))
    marks.append(time.perf_counter())
    events = total_events_processed() - events_before
    reference_s += host.reference_samples()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": marks[-1] - marks[0],
        # Seconds per part; the last one is the run's tail after its last lap.
        "parts_s": [end - start for start, end in zip(marks, marks[1:])],
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events": events,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "writes": summarize_durations(outcome.writes),
        "reads": summarize_durations(outcome.reads),
        "counts": outcome.counts,
        "extra": outcome.extra,
        "digest": outcome.digest(),
    }
    if args.trace:
        record["layers"] = ledger
    print(json.dumps(record))


if __name__ == "__main__":
    main()
