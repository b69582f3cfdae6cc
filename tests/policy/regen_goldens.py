"""Regenerate the pinned hotspot heat-cycle golden.

Usage:  PYTHONPATH=src python tests/policy/regen_goldens.py

The chaos goldens cannot see what the hotspot policy does: on their
campaign shape (seed 7, 4 runs, scale 0.25) its boosts land after the
reads, so its reports equal the default policy's but for the ``policy``
tag.  This golden pins one full heat cycle instead
(``test_hotspot.py``'s: a 4 MB write, three reads, then 70 s): the
sha256 of the deployment's journal, the monitor's copies and trims,
and the policy's promotion and demotion counts.

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

from repro.hdfs import HdfsReader  # noqa: E402
from repro.units import MB  # noqa: E402

from tests.policy.conformance import build_deployment  # noqa: E402

#: The heat cycle: one write of ``SIZE``, ``READS`` whole-file reads
#: (one more than the policy's ``hot_reads`` default needs), then
#: ``COOL`` simulated seconds, past the 30 s popularity window.
SIZE = 4 * MB
READS = 3
COOL = 70.0


def hotspot_counters(deployment) -> dict:
    """The hotspot policy's promotion and demotion counts."""
    policy = deployment.policy
    return {"promotions": policy.promotions, "demotions": policy.demotions}


def heat_cycle(policy="hotspot", cool: float = COOL):
    """Run the heat cycle on a fresh deployment; return the deployment."""
    env, deployment = build_deployment(policy)
    client = deployment.client()
    env.run(until=env.process(client.put("/hot", SIZE)))
    for _ in range(READS):
        reader = HdfsReader(deployment)
        env.run(until=env.process(reader.get("/hot")))
    env.run(until=env.now + cool)
    return deployment


def summary(deployment) -> dict:
    """What the golden pins of one finished heat cycle."""
    journal = "\n".join(str(event) for event in deployment.journal)
    monitor = deployment.replication_monitor
    return {
        "journal_sha256": hashlib.sha256(journal.encode("utf-8")).hexdigest(),
        "journal_lines": len(deployment.journal),
        "completed": [list(task) for task in monitor.completed],
        "removed": [list(trim) for trim in monitor.removed],
        **hotspot_counters(deployment),
    }


def generate() -> dict[str, str]:
    """Golden file name -> contents, freshly computed."""
    return {
        "golden_hotspot_cycle.json": (
            json.dumps(summary(heat_cycle()), sort_keys=True, indent=2) + "\n"
        )
    }


def main() -> None:
    for name, text in generate().items():
        path = HERE / name
        path.write_text(text)
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
