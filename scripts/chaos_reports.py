"""Write one write and one degraded-read chaos report per sub-seed.

For every sub-seed ``s`` in ``[--first, --last]`` this writes
``report_json(run_campaign(s, 1))`` as ``w{s:03d}.json`` and
``report_json(run_read_campaign(s, 1))`` as ``r{s:03d}.json`` into
``OUT_DIR`` (both protocols, at ``--scale``).  The reports are
byte-deterministic, so running the script in two checkouts and diffing
the directories is a report-identity check for a refactor::

    PYTHONPATH=/path/to/parent/src python scripts/chaos_reports.py parent
    PYTHONPATH=src python scripts/chaos_reports.py head
    diff -r parent head

The ``repro`` package is whichever one ``PYTHONPATH`` names, so one copy
of this script serves both checkouts.  ``--per-packet`` runs every
schedule with ``coalesce_packets=1`` and ``coalesce_reads=1``: no packet
or read train, only the per-packet and per-chunk loops that are their
oracle.  Diffing a default run against a ``--per-packet`` run of the same
checkout checks that the trains give the loops' reports::

    PYTHONPATH=src python scripts/chaos_reports.py trains
    PYTHONPATH=src python scripts/chaos_reports.py --per-packet loops
    diff -r trains loops

Sub-seeds 0-199 at scale 1.0 take about 3.5 s with trains and 11 s per
packet on one core of a 2-vCPU AMD EPYC container (CPython 3.11.7).
"""

from __future__ import annotations

import argparse
import os

from repro.faults.campaign import (
    ChaosSchedule,
    report_json,
    run_campaign,
    run_read_campaign,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", help="directory to write the reports into")
    parser.add_argument("--first", type=int, default=0, help="first sub-seed")
    parser.add_argument("--last", type=int, default=199, help="last sub-seed")
    parser.add_argument("--scale", type=float, default=1.0, help="campaign scale")
    parser.add_argument(
        "--per-packet",
        action="store_true",
        help="run without packet and read trains (coalesce_packets=1, "
        "coalesce_reads=1)",
    )
    args = parser.parse_args(argv)

    if args.per_packet:
        config = ChaosSchedule.config
        ChaosSchedule.config = lambda self: config(self).with_hdfs(
            coalesce_packets=1, coalesce_reads=1
        )
    os.makedirs(args.out_dir, exist_ok=True)
    for s in range(args.first, args.last + 1):
        for prefix, run in (("w", run_campaign), ("r", run_read_campaign)):
            path = os.path.join(args.out_dir, f"{prefix}{s:03d}.json")
            with open(path, "w") as out:
                out.write(report_json(run(s, 1, scale=args.scale)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
