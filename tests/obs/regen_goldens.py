"""Regenerate the pinned trace goldens (fig5 trace and metrics, faultrec trace).

Usage:  PYTHONPATH=src python tests/obs/regen_goldens.py

:func:`generate` is the pure half — it returns the golden file contents
without touching disk, so ``tests/policy/test_regen_goldens.py`` can
assert the regeneration is idempotent and matches the checked-in bytes.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import chrome_trace_json
from repro.obs.trace_cmd import run_traced

HERE = Path(__file__).parent


def generate() -> dict[str, str]:
    """Golden file name -> contents, freshly computed."""
    run = run_traced("fig5", seed=0, scale=0.25)
    faultrec = run_traced("faultrec", seed=0, scale=0.25)
    return {
        "golden_fig5_trace.json": chrome_trace_json(run.tracer, label="fig5"),
        "golden_fig5_metrics.txt": run.summary,
        "golden_faultrec_trace.json": chrome_trace_json(
            faultrec.tracer, label="faultrec"
        ),
    }


def main() -> None:
    for name, text in generate().items():
        path = HERE / name
        path.write_text(text)
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
