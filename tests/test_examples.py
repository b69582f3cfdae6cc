"""Every script in ``examples/`` runs to completion at a small size.

Each case runs one example in a fresh interpreter, the way the README
invokes it (``PYTHONPATH=src python examples/<name>.py <arg>``), and
requires exit code 0 and one line of output that only a finished run
prints.  ``pipeline_timeline.py`` also exercises the journal API the
examples read (iterating a deployment's journal and ``count``).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: (script, argument, a regex one output line must match).
CASES = [
    ("quickstart.py", "64MB", r"^smarth : .*fully replicated: True\)$"),
    (
        "fault_tolerance_demo.py",
        "128MB",
        r"^smarth : clean .*, 1 recoveries, killed: dn\d+, "
        r"fully replicated: True\)$",
    ),
    (
        "mapreduce_pipeline.py",
        "128MB",
        r"^smarth : ingest .* \(100% data-local\)  total ",
    ),
    (
        "pipeline_timeline.py",
        "128MB",
        r"^read back 128\.00 MB in .* from 2 datanodes — replicas OK$",
    ),
    ("heterogeneous_cluster.py", "0.02", r"^ +0\.16G +\S+s +\S+s +-?\d+%$"),
    ("two_rack_throttling.py", "0.02", r"^large +default +\S+s +\S+s +-?\d+%$"),
    ("bandwidth_contention.py", "0.02", r"^ +5 slow +\S+s +\S+s +-?\d+%$"),
]


def test_every_example_has_a_case() -> None:
    scripts = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    assert scripts == sorted(script for script, _, _ in CASES)


@pytest.mark.parametrize(
    "script, arg, expected", CASES, ids=[script for script, _, _ in CASES]
)
def test_example_runs(script: str, arg: str, expected: str) -> None:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), arg],
        capture_output=True,
        text=True,
        encoding="utf-8",
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(expected, proc.stdout, re.MULTILINE), proc.stdout
