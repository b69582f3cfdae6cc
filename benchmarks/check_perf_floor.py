"""CI perf-floor gate: compare BENCH_*.json results against perf_floor.json.

Run after ``pytest benchmarks/bench_kernel.py`` and, at
``REPRO_BENCH_SCALE=0.25``, ``pytest benchmarks/bench_scale.py
benchmarks/bench_pods.py benchmarks/bench_service.py
benchmarks/bench_campaign.py``:

    python benchmarks/check_perf_floor.py

Every top-level group in ``perf_floor.json`` (besides ``comment`` and
``tolerance``) names a results file — ``kernel`` → ``BENCH_kernel.json``,
``pods`` → ``BENCH_pods.json`` — whose sections are checked against the
group's limits.  Every floor is on host time.  Fails (exit 1) when a
measured ``events_per_sec`` drops more than the configured tolerance
below its checked-in floor, or when a measured wall-time ``speedup``
falls under its ``min_speedup``.  Parallel-speedup floors are gated on
the machine being able to demonstrate them at all: ``min_cpus`` skips a
section's ``min_speedup`` on small machines.  Skips are loud — they
appear in the detail lines and in the summary table printed at the end.
Raising a floor is a normal part of landing a perf win; lowering one is
a perf regression and needs a justification of its own.  Simulated-time
ratios and heap-event reductions are deterministic, so they are no
floors here: tier-1 tests pin them exactly, each with its bound.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
FLOORS = BENCH_DIR / "perf_floor.json"


def check_group(
    group: str, sections: dict, tolerance: float, rows: list
) -> list[str]:
    """Check one floors group against its ``BENCH_<group>.json``.

    Appends one ``(check, measured, floor, status)`` row per check to
    ``rows`` for the summary table; returns the failure messages.
    """
    results_path = RESULTS_DIR / f"BENCH_{group}.json"
    if not results_path.exists():
        rows.append((group, "-", "-", "MISSING"))
        return [
            f"missing {results_path}: run benchmarks/bench_{group}.py first"
        ]
    bench = json.loads(results_path.read_text())

    failures = []
    for section, limits in sections.items():
        measured = bench.get(section)
        if measured is None:
            rows.append((f"{group}.{section}", "-", "-", "MISSING"))
            failures.append(f"{group}.{section}: missing from {results_path.name}")
            continue
        floor_eps = limits.get("events_per_sec")
        if floor_eps is not None:
            allowed = floor_eps * (1.0 - tolerance)
            actual = measured.get("events_per_sec", 0)
            status = "ok" if actual >= allowed else "FAIL"
            print(
                f"{group}.{section}.events_per_sec: {actual} "
                f"(floor {floor_eps}, min allowed {allowed:.0f}) {status}"
            )
            rows.append(
                (
                    f"{group}.{section}.events_per_sec",
                    f"{actual}",
                    f">= {allowed:.0f}",
                    status,
                )
            )
            if actual < allowed:
                failures.append(
                    f"{group}.{section}.events_per_sec {actual} < {allowed:.0f}"
                )
        minimum = limits.get("min_speedup")
        if minimum is None:
            continue
        check = f"{group}.{section}.speedup"
        actual = measured.get("speedup", 0.0)
        min_cpus = limits.get("min_cpus")
        cpus = measured.get("cpus")
        if min_cpus is not None and cpus is not None and cpus < min_cpus:
            # A parallel-speedup floor is meaningless on a machine that
            # cannot physically parallelize (too few cores) — report,
            # don't fail (CI runners satisfy min_cpus; laptops may not).
            skip = f"skip ({cpus} cpus < min_cpus {min_cpus})"
            print(f"{check}: {skip}")
            rows.append((check, f"{actual}x", f">= {minimum}x", skip))
            continue
        status = "ok" if actual >= minimum else "FAIL"
        print(f"{check}: {actual}x (min {minimum}x) {status}")
        rows.append((check, f"{actual}x", f">= {minimum}x", status))
        if actual < minimum:
            failures.append(f"{check} {actual} < {minimum}")
    return failures


def print_summary(rows: list) -> None:
    """One line per check, aligned: check | measured | floor | status."""
    headers = ("check", "measured", "floor", "status")
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(4)
    ]
    print("\nsummary:")
    print("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  " + "  ".join("-" * w for w in widths))
    for row in rows:
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))


def main() -> int:
    floors = json.loads(FLOORS.read_text())
    tolerance = float(floors.get("tolerance", 0.30))

    failures = []
    rows: list[tuple[str, str, str, str]] = []
    for group, sections in floors.items():
        if group in ("comment", "tolerance"):
            continue
        failures.extend(check_group(group, sections, tolerance, rows))

    if rows:
        print_summary(rows)

    if failures:
        print("perf floor check FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("perf floor check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
