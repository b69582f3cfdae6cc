"""Regenerate the pinned chaos-campaign goldens.

Usage:  PYTHONPATH=src python tests/faults/regen_goldens.py

Pins the sha256 of the canonical :func:`~repro.faults.report_json` for a
fixed write campaign and a fixed degraded-read campaign (both protocols),
plus their per-invariant totals so a drift says *which* checks moved.

:func:`generate` is the pure half — it returns the golden file contents
without touching disk, so ``tests/policy/test_regen_goldens.py`` can
assert the regeneration is idempotent and matches the checked-in bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parents[1]))

from repro.faults import report_json, run_campaign  # noqa: E402
from repro.faults.campaign import run_read_campaign  # noqa: E402

#: (label, campaign function) — each run as ``fn(SEED, RUNS, scale=SCALE)``.
CAMPAIGNS = (("write", run_campaign), ("read", run_read_campaign))
SEED = 7
RUNS = 4
SCALE = 0.25


def campaign_report(label: str) -> dict:
    """The pinned campaign's report (both protocols)."""
    return dict(CAMPAIGNS)[label](SEED, RUNS, scale=SCALE)


def generate() -> dict[str, str]:
    """Golden file name -> contents, freshly computed."""
    goldens = {}
    for label, _ in CAMPAIGNS:
        report = campaign_report(label)
        goldens[label] = {
            "sha256": hashlib.sha256(
                report_json(report).encode("utf-8")
            ).hexdigest(),
            "invariant_totals": report["invariant_totals"],
        }
    return {
        "golden_chaos_digests.json": (
            json.dumps(goldens, sort_keys=True, indent=2) + "\n"
        )
    }


def main() -> None:
    for name, text in generate().items():
        path = HERE / name
        path.write_text(text)
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
