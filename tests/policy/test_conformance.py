"""Conformance suite: every registered policy passes the §12 contract.

Parametrized over ``policy_names()`` so registering a new policy
automatically enrolls it; the check implementations live in
``tests/policy/conformance.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy import (
    HotspotPolicy,
    Policy,
    policy_class,
    policy_names,
    register_policy,
    resolve_policy,
)

from .conformance import (
    check_chaos_durability,
    check_determinism,
    check_interface,
    check_read_feedback,
    check_rereplication_convergence,
    upload_fingerprint,
)

POLICIES = policy_names()


def test_builtin_policies_registered() -> None:
    assert set(POLICIES) >= {"default", "hotspot", "tuner"}


@pytest.mark.parametrize("name", POLICIES)
class TestConformance:
    def test_interface(self, name: str) -> None:
        check_interface(name)

    def test_determinism_fixed_seed(self, name: str) -> None:
        check_determinism(name)

    def test_chaos_durability(self, name: str) -> None:
        check_chaos_durability(name)

    def test_rereplication_convergence(self, name: str) -> None:
        check_rereplication_convergence(name)

    def test_read_feedback(self, name: str) -> None:
        check_read_feedback(name)


@pytest.mark.parametrize("name", POLICIES)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_determinism_across_seeds(name: str, seed: int) -> None:
    """Fresh-instance runs of any seed reproduce the same fingerprint."""
    assert upload_fingerprint(name, seed=seed) == upload_fingerprint(
        name, seed=seed
    )


class TestRegistry:
    def test_unknown_name_rejected(self) -> None:
        with pytest.raises(KeyError, match="unknown policy"):
            policy_class("no-such-policy")

    def test_duplicate_registration_rejected(self) -> None:
        class Impostor(Policy):
            name = "default"

        with pytest.raises(ValueError, match="already registered"):
            register_policy(Impostor)

    def test_reregistering_same_class_is_idempotent(self) -> None:
        cls = policy_class("default")
        assert cls is Policy
        assert register_policy(cls) is cls

    def test_bad_spec_type_rejected(self) -> None:
        # A class is no spec: only a name or an instance selects a policy.
        for spec in (42, HotspotPolicy):
            with pytest.raises(TypeError, match="policy spec"):
                resolve_policy(spec, deployment=None)

    def test_instance_rebinds_keeping_identity(self) -> None:
        from .conformance import build_deployment

        instance = policy_class("tuner")()
        _, first = build_deployment(instance)
        _, second = build_deployment(instance)
        assert first.policy is instance
        assert second.policy is instance
        assert instance.deployment is second
