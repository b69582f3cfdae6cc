"""CI perf-floor gate: compare BENCH_*.json results against perf_floor.json.

Run after ``pytest benchmarks/bench_kernel.py benchmarks/bench_scale.py
benchmarks/bench_shard.py benchmarks/bench_campaign.py``:

    python benchmarks/check_perf_floor.py

Every top-level group in ``perf_floor.json`` (besides ``comment`` and
``tolerance``) names a results file — ``kernel`` → ``BENCH_kernel.json``,
``scale`` → ``BENCH_scale.json`` — whose sections are checked against the
group's limits.  Fails (exit 1) when a measured ``events_per_sec`` drops
more than the configured tolerance below its checked-in floor, or when a
machine-independent ratio (the packet-train ``event_reduction``, the
allocation-path ``speedup``) falls under its minimum.  Parallel-speedup
floors are gated on the machine being able to demonstrate them at all:
``min_cpus`` skips a section's ratio floors on small machines.  Skips
are loud — they appear in the detail lines and in the summary table
printed at the end.  Raising a floor is a normal part of landing a perf
win; lowering one is a perf regression and needs justification in the
PR.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
FLOORS = BENCH_DIR / "perf_floor.json"

#: Keys in a floor section that are hard minimums on a measured ratio
#: (machine-independent — no tolerance applied), mapped to the measured
#: key they check.
RATIO_FLOORS = {
    "min_event_reduction": "event_reduction",
    "min_speedup": "speedup",
}


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
            f"missing {results_path}: run the benchmarks/bench_{group}* "
            "suite first"
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
        min_cpus = limits.get("min_cpus")
        cpus = measured.get("cpus")
        skip_reason = None
        if min_cpus is not None and cpus is not None and cpus < min_cpus:
            skip_reason = f"{cpus} cpus < min_cpus {min_cpus}"
        for floor_key, measured_key in RATIO_FLOORS.items():
            minimum = limits.get(floor_key)
            if minimum is None:
                continue
            if skip_reason is not None:
                # A parallel-speedup floor is meaningless on a machine
                # that cannot physically parallelize (too few cores) —
                # report, don't fail (CI runners satisfy min_cpus;
                # laptops may not).
                print(
                    f"{group}.{section}.{measured_key}: skipped "
                    f"({skip_reason})"
                )
                rows.append(
                    (
                        f"{group}.{section}.{measured_key}",
                        f"{measured.get(measured_key, 0.0)}x",
                        f">= {minimum}x",
                        f"skip ({skip_reason})",
                    )
                )
                continue
            actual = measured.get(measured_key, 0.0)
            status = "ok" if actual >= minimum else "FAIL"
            print(
                f"{group}.{section}.{measured_key}: {actual}x "
                f"(min {minimum}x) {status}"
            )
            rows.append(
                (
                    f"{group}.{section}.{measured_key}",
                    f"{actual}x",
                    f">= {minimum}x",
                    status,
                )
            )
            if actual < minimum:
                failures.append(
                    f"{group}.{section}.{measured_key} {actual} < {minimum}"
                )
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
