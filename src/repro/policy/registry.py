"""Policy registry: names to :class:`~repro.policy.base.Policy` classes.

A deployment's policy is selected explicitly: pass ``policy=`` to a
deployment (or ``--policy`` to the chaos CLI) — a registry name or an
already-constructed :class:`~repro.policy.base.Policy` instance
(re-bound to the new deployment, keeping its learned state — how an
online tuner carries knowledge across uploads that each build a fresh
deployment).  ``None`` selects ``"default"``: :class:`Policy` itself,
the paper's fixed strategies.

:class:`Policy` registers here; the other built-in policies register
when :mod:`repro.policy` is imported, and :func:`register_policy` adds
new ones (see DESIGN.md §12).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Type, Union

from .base import Policy

if TYPE_CHECKING:  # pragma: no cover
    from ..hdfs.deployment import HdfsDeployment

__all__ = [
    "register_policy",
    "policy_names",
    "policy_class",
    "resolve_policy",
    "PolicySpec",
]

#: Anything :func:`resolve_policy` accepts.
PolicySpec = Union[str, Policy, None]

_POLICIES: dict[str, Type[Policy]] = {}


def register_policy(cls: Type[Policy]) -> Type[Policy]:
    """Class decorator: add ``cls`` to the registry under ``cls.name``."""
    name = cls.name
    existing = _POLICIES.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"policy name {name!r} already registered by {existing.__name__}"
        )
    _POLICIES[name] = cls
    return cls


register_policy(Policy)


def policy_names() -> tuple[str, ...]:
    """Registered policy names, sorted (``default`` always present)."""
    return tuple(sorted(_POLICIES))


def policy_class(name: str) -> Type[Policy]:
    """Look up a registered policy class by name."""
    try:
        return _POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(_POLICIES))
        raise KeyError(f"unknown policy {name!r}; known: {known}") from None


def resolve_policy(
    spec: PolicySpec, deployment: "HdfsDeployment"
) -> Policy:
    """Turn a policy spec into an instance bound to ``deployment``.

    ``None`` resolves ``"default"``.  An existing instance is re-bound,
    not copied — its cross-deployment state survives.
    """
    if spec is None:
        spec = "default"
    if isinstance(spec, Policy):
        return spec.bind(deployment)
    if isinstance(spec, str):
        return policy_class(spec)(deployment)
    raise TypeError(
        f"policy spec must be a name or a Policy instance, got {spec!r}"
    )
