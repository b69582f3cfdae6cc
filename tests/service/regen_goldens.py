"""Regenerate the pinned service checkpoint/resume goldens.

Usage:  PYTHONPATH=src python tests/service/regen_goldens.py

:func:`generate` is the pure half — it returns the golden file contents
without touching disk, so ``tests/policy/test_regen_goldens.py`` can
assert the regeneration is idempotent and matches the checked-in bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent
sys.path.insert(0, str(HERE.parents[1]))

from repro.service import IngestService  # noqa: E402

from tests.service.specs import golden_spec  # noqa: E402


def generate() -> dict[str, str]:
    """Golden file name -> contents, freshly computed."""
    goldens = {}
    for label, chaos in (("plain", False), ("chaos", True)):
        report = IngestService(golden_spec(chaos=chaos)).run()
        goldens[label] = {
            "digests": report.digests(),
            "counts": report.counts,
        }
    return {
        "golden_service_digests.json": (
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
