"""Print the deterministic ledger counts that differ between two runs.

    python scripts/ledger_counts.py BASE.json HEAD.json

``BASE`` and ``HEAD`` are envelopes written by ``python3
benchmarks/ledger/run.py --trace 1 --out FILE``, typically one from a
parent checkout and one from the change.  Every per-layer metric of every
workload is compared except the host-timed ones (``*.self_s``,
``*.share``, ``sim.us_per_event`` and ``trace_overhead``), which differ
from run to run.  The rest are simulated counts and ratios, and each one
that differs prints as ``workload metric base -> head`` (``-`` where a
side lacks it).  Like ``diff``, the exit status is 0 when nothing
differs, 1 when something does and 2 when an envelope has no per-layer
block (a run without ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Host-timed per-layer metrics that are not suffixed ``.self_s``/``.share``.
HOST_TIMED = ("sim.us_per_event", "trace_overhead")


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is deterministic for a fixed seed."""
    return not (metric.endswith((".self_s", ".share")) or metric in HOST_TIMED)


def layer_counts(path: str) -> dict:
    """``{workload: {metric: value}}`` of one traced envelope's counts."""
    workloads = json.loads(Path(path).read_text())["workloads"]
    counts = {}
    for name, summary in workloads.items():
        if not summary["layers"]:
            raise ValueError(f"{path}: {name} has no per-layer block")
        counts[name] = {
            metric: value
            for metric, value in summary["layers"].items()
            if is_count(metric)
        }
    return counts


def differences(base: dict, head: dict) -> list[str]:
    """One ``workload metric base -> head`` line per differing count."""
    lines = []
    for workload in sorted(base.keys() | head.keys()):
        b, h = base.get(workload, {}), head.get(workload, {})
        for metric in sorted(b.keys() | h.keys()):
            old, new = b.get(metric, "-"), h.get(metric, "-")
            if old != new:
                lines.append(f"{workload} {metric} {old} -> {new}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="traced envelope of the base run")
    parser.add_argument("head", help="traced envelope of the head run")
    args = parser.parse_args(argv)
    try:
        base, head = layer_counts(args.base), layer_counts(args.head)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    lines = differences(base, head)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
