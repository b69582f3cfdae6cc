"""Golden-regeneration guard: regen scripts are idempotent and current.

The conformance story rests on byte-pinned goldens, so the scripts that
*produce* them must themselves be trustworthy: running a regen twice in
one process must yield identical bytes (no hidden global state, wall
clock, or unseeded RNG), and what it yields must match what is checked
in (a drifted golden would silently weaken every equivalence proof that
pins it).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.faults import regen_goldens as faults_regen
from tests.obs import regen_goldens as obs_regen
from tests.policy import regen_goldens as policy_regen
from tests.service import regen_goldens as service_regen

MODULES = {
    "faults": faults_regen,
    "obs": obs_regen,
    "policy": policy_regen,
    "service": service_regen,
}


@pytest.fixture(scope="module", params=sorted(MODULES), ids=sorted(MODULES))
def regen(request):
    module = MODULES[request.param]
    return module, module.generate(), module.generate()


def test_regeneration_is_idempotent(regen) -> None:
    module, first, second = regen
    assert first == second, f"{module.__name__} is not deterministic"


def test_regeneration_matches_checked_in_goldens(regen) -> None:
    module, first, _ = regen
    here = Path(module.__file__).parent
    assert first, "generate() produced nothing"
    for name, text in first.items():
        golden = here / name
        assert golden.exists(), f"{golden} missing — run {module.__name__}"
        assert golden.read_text() == text, (
            f"{golden.name} drifted from its regen script; if the change "
            f"is intentional, rerun PYTHONPATH=src python -m "
            f"{module.__name__}"
        )
