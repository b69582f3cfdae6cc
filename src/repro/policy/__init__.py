"""Pluggable replication and tuning policies (see DESIGN.md §12).

The policy layer turns the strategies the paper fixes at design time —
replication targets, the Algorithm 2 threshold, the pipeline cap — into
one per-deployment :class:`Policy` object that the replication monitor,
the SMARTH client and the read path all call.  ``DefaultPolicy`` is the
pre-framework behavior (proven byte-identical by the golden suites);
``HotspotPolicy`` and ``OnlineTunerPolicy`` are the first two adaptive
strategies; new ones register with :func:`register_policy` and must pass
the conformance harness in ``tests/policy/conformance.py``.

Select a policy explicitly (``HdfsDeployment(..., policy="hotspot")``,
``python -m repro chaos --policy hotspot``) or ambiently for a whole
code path with :func:`use_policy`.
"""

from __future__ import annotations

from .base import NO_TUNING, ClientTuning, Policy
from .default import DefaultPolicy
from .hotspot import HotspotPolicy
from .registry import (
    PolicySpec,
    active_policy_spec,
    policy_class,
    policy_names,
    register_policy,
    resolve_policy,
    use_policy,
)
from .tuner import OnlineTunerPolicy

__all__ = [
    "Policy",
    "ClientTuning",
    "NO_TUNING",
    "PolicySpec",
    "DefaultPolicy",
    "HotspotPolicy",
    "OnlineTunerPolicy",
    "register_policy",
    "policy_names",
    "policy_class",
    "resolve_policy",
    "use_policy",
    "active_policy_spec",
]
