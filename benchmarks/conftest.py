"""Shared helpers for the benchmark harness.

Every ``bench_fig*.py`` regenerates one table/figure of the paper: it
runs the corresponding experiment driver once (simulations are
deterministic — repeated rounds would measure the same thing), prints
the series the paper plots, writes it to ``benchmarks/results/<id>.txt``
and attaches the headline numbers to pytest-benchmark's ``extra_info``.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — scale factor on the paper's file sizes
  (default 1.0 = the paper's 8 GB points, ~2 minutes for the whole
  suite; set e.g. 0.25 for a quick pass — assertions loosen accordingly
  because the speed-learning warm-up then covers a larger fraction of
  each upload).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.sim import total_events_processed

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_bench_json(
    results_dir: pathlib.Path, name: str, section: str, payload: dict
) -> pathlib.Path:
    """Merge ``payload`` into ``BENCH_<name>.json`` under ``section``.

    Machine-readable companion to the ``.txt`` results: the perf-smoke
    floor check (``check_perf_floor.py``) reads these instead of
    scraping text.  Every section records the ``REPRO_BENCH_SCALE`` it
    ran at as ``bench_scale``.
    """
    path = results_dir / f"BENCH_{name}.json"
    data = json.loads(path.read_text()) if path.exists() else {}
    data[section] = {**payload, "bench_scale": bench_scale()}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def run_experiment(benchmark, results_dir, driver, **kwargs):
    """Run one experiment driver under pytest-benchmark and report it.

    Besides the experiment's own headline numbers, reports kernel
    throughput (simulation events processed per wall-clock second) so
    perf regressions in the event loop show up in ``extra_info`` even
    when the simulated results are unchanged.
    """
    events_before = total_events_processed()
    wall_start = time.perf_counter()
    result = benchmark.pedantic(
        lambda: driver(**kwargs), rounds=1, iterations=1
    )
    elapsed = time.perf_counter() - wall_start
    events = total_events_processed() - events_before
    text = result.to_text()
    print("\n" + text)
    (results_dir / f"{result.experiment_id}.txt").write_text(text + "\n")
    benchmark.extra_info["experiment"] = result.experiment_id
    benchmark.extra_info["measured"] = {
        k: str(v) for k, v in result.measured.items()
    }
    benchmark.extra_info["paper"] = result.paper_claim.get("claim", "")
    events_per_sec = round(events / elapsed) if elapsed > 0 else 0
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = events_per_sec
    write_bench_json(
        results_dir,
        result.experiment_id,
        "experiment",
        {
            "experiment": result.experiment_id,
            "events_processed": events,
            "wall_seconds": round(elapsed, 3),
            "events_per_sec": events_per_sec,
            "measured": {k: str(v) for k, v in result.measured.items()},
        },
    )
    return result
