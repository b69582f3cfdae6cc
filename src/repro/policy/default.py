"""The ``default`` policy: the pre-framework behavior, named.

:class:`DefaultPolicy` adds nothing to :class:`~repro.policy.base.Policy`
— the base class's stock implementations *are* Hadoop/SMARTH's fixed
strategies (a uniform replication target with rack-aware healing, the
configured 0.8 threshold, no tuning feedback).  It exists so the
registry, the conformance harness and the bench can treat "do what the
paper does" as one more policy, and so its byte-identity to the
pre-refactor code paths is a named, tested property (the fig5/faultrec
goldens and the fixed-seed chaos reports pin it).
"""

from __future__ import annotations

from .base import Policy
from .registry import register_policy

__all__ = ["DefaultPolicy"]


@register_policy
class DefaultPolicy(Policy):
    """The paper's fixed strategies, registered under ``"default"``."""

    name = "default"
