"""Frozen dataclasses as sorted ``(name, value)`` pairs.

A :class:`~repro.platforms.faults.FaultPlan` or a
:class:`~repro.core.mitigation.MitigationPolicy` rides inside a hashable
:class:`~repro.core.parallel.CampaignSpec` as the pairs of its
non-default fields, so a spec hashes the same however the object was
built and two specs differ only where their settings do.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Iterable, Tuple


def to_items(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """``value``'s non-default fields as sorted ``(name, value)`` pairs."""
    return tuple(sorted(
        (item.name, getattr(value, item.name)) for item in fields(value)
        if getattr(value, item.name) != item.default))


def from_items(cls: type, items: Iterable[Tuple[str, Any]]) -> Any:
    """Build ``cls`` from ``(name, value)`` pairs, rejecting unknown
    names; JSON lists come back as the tuples the fields hold."""
    known = {item.name for item in fields(cls)}
    payload = {}
    for name, value in items:
        if name not in known:
            raise ValueError(f"unknown {cls.__name__} field {name!r}; "
                             f"choose from {sorted(known)}")
        if isinstance(value, (list, tuple)):
            value = tuple(tuple(item) if isinstance(item, (list, tuple))
                          else item for item in value)
        payload[str(name)] = value
    return cls(**payload)
