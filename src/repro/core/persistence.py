"""Persist experiment results to JSON for cross-run comparison.

Campaign latencies and cost reports serialize to a stable, versioned JSON
shape so that a run's numbers can be archived next to EXPERIMENTS.md,
diffed across calibration changes, or post-processed elsewhere.

This module is the single serialization authority, and it has one
codec.  :func:`to_dict` writes any result dataclass named in
:data:`KINDS` as its ``asdict`` plus ``format_version`` and ``kind``;
:func:`from_dict` checks those two keys and rebuilds the object from
its fields' type hints (nested dataclasses, lists, tuples and
``Optional`` values), so a new result type needs one :data:`KINDS`
entry and no hand-written pair.  A completed
:class:`~repro.core.parallel.CampaignOutcome` is one such document per
part (:func:`outcome_to_dict`/:func:`outcome_from_dict`) and
round-trips exactly (floats survive via JSON shortest-repr); the result
cache (:mod:`repro.core.cache`) and the sweep journal
(:mod:`repro.core.checkpoint`) store that one document shape, guarded
by :func:`payload_checksum`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, fields as dataclass_fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.audit import AuditReport
from repro.core.costs import CostReport
from repro.core.experiment import CampaignResult
from repro.core.overload import OverloadSummary
from repro.core.parallel import CampaignOutcome, CampaignSpec
from repro.core.reliability import ReliabilitySummary
from repro.core.resilience import ResilienceSummary

FORMAT_VERSION = 1

#: The document ``kind`` of each result class.  A campaign outcome
#: stores its parts under the :class:`CampaignOutcome` fields of the
#: same names.
KINDS: Dict[type, str] = {
    CampaignResult: "campaign",
    CostReport: "cost",
    ReliabilitySummary: "reliability",
    OverloadSummary: "overload",
    ResilienceSummary: "resilience",
    AuditReport: "audit",
}

_META = ("format_version", "kind")


def to_dict(value: Any) -> Dict[str, Any]:
    """A JSON-ready document of ``value``, a :data:`KINDS` class."""
    payload = asdict(value)
    payload.update({"format_version": FORMAT_VERSION,
                    "kind": KINDS[type(value)]})
    return payload


def from_dict(cls: type, data: Dict[str, Any]) -> Any:
    """Inverse of :func:`to_dict` for a document of ``cls``'s kind."""
    _check(data, KINDS[cls])
    return _build(cls, {name: value for name, value in data.items()
                        if name not in _META})


def _build(cls: type, item: Dict[str, Any]) -> Any:
    """``cls`` from the JSON object ``item``, which it may modify."""
    for name, convert in _plan(cls):
        if name in item:
            item[name] = convert(item[name])
    return cls(**item)


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> Tuple[Tuple[str, Callable[[Any], Any]], ...]:
    """The fields of ``cls`` whose JSON form needs converting back, each
    with its converter; the rest pass to ``cls`` as JSON gives them."""
    hints = get_type_hints(cls)
    plan = ((item.name, _converter(hints[item.name]))
            for item in dataclass_fields(cls))
    return tuple((name, convert) for name, convert in plan
                 if convert is not None)


def _converter(hint: Any) -> Optional[Callable[[Any], Any]]:
    """How to rebuild a value of type ``hint`` from its JSON form, or
    ``None`` when JSON already carries it as is."""
    if is_dataclass(hint):
        if _plan(hint):
            return lambda item: _build(hint, dict(item))
        return lambda item: hint(**item)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        present = [arg for arg in args if arg is not type(None)]
        convert = _converter(present[0]) if len(present) == 1 else None
        if convert is None:
            return None
        return lambda value: None if value is None else convert(value)
    if origin is list:
        convert = _converter(args[0])
        if convert is None:
            return None
        return lambda values: [convert(value) for value in values]
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            convert = _converter(args[0])
            if convert is None:
                return tuple
            return lambda values: tuple([convert(value) for value in values])
        converts = [_converter(arg) for arg in args]
        if not any(converts):
            return tuple
        return lambda values: tuple(
            value if convert is None else convert(value)
            for convert, value in zip(converts, values))
    return None


def outcome_to_dict(outcome: CampaignOutcome) -> Dict[str, Any]:
    """A JSON-ready representation of a full campaign outcome.

    Each part is its :func:`to_dict` document, or ``None`` when absent.
    Exotic per-run values (anything JSON cannot carry) are stored as
    their ``repr`` — latencies, delays, breakdowns and cost meters
    round-trip exactly.
    """
    payload = {"format_version": FORMAT_VERSION, "kind": "outcome",
               "idle_transactions": outcome.idle_transactions}
    for kind in KINDS.values():
        part = getattr(outcome, kind)
        payload[kind] = None if part is None else to_dict(part)
    return payload


def outcome_from_dict(data: Dict[str, Any],
                      spec: CampaignSpec) -> CampaignOutcome:
    """Inverse of :func:`outcome_to_dict` for the given ``spec``."""
    _check(data, "outcome")
    # An absent part takes its field's default; a missing required one
    # (campaign, cost) fails the constructor.
    parts = {kind: from_dict(cls, data[kind])
             for cls, kind in KINDS.items() if data.get(kind) is not None}
    return CampaignOutcome(
        spec=spec, idle_transactions=data.get("idle_transactions", 0),
        **parts)


class SpecValidationError(ValueError):
    """A spec document cannot rebuild a :class:`CampaignSpec`.

    Always names the offending key, so a hand-edited repro file or a
    fuzzer-mutated document fails with ``spec field 'fault_plan': ...``
    instead of a bare ``KeyError``/``TypeError`` from deep inside the
    dataclass machinery.
    """

    def __init__(self, key: str, detail: str):
        super().__init__(f"spec field {key!r}: {detail}")
        self.key = key
        self.detail = detail

    def __reduce__(self):
        # The default reduce replays ``args`` (the formatted message)
        # into ``__init__(key, detail)`` — rebuild from the real fields
        # so the error survives worker→parent pickling intact.
        return (type(self), (self.key, self.detail))


#: pair-list spec fields (``((name, value), ...)`` tuples in canonical form)
_PAIR_FIELDS = ("calibration_overrides", "invoke_kwargs", "fault_plan",
                "mitigation")
#: JSON type each scalar spec field must carry (bool checked before int —
#: ``isinstance(True, int)`` holds, and a bool where a count belongs is a
#: type error we want named)
_SPEC_FIELD_TYPES: Dict[str, tuple] = {
    "deployment": (str,), "workload": (str,), "scale": (str,),
    "campaign": (str,), "arrival": (str,),
    "fanout": (int,), "seed": (int,), "workload_seed": (int,),
    "iterations": (int,), "warmup": (int,), "batch": (int,),
    "think_time_s": (int, float), "settle_time_s": (int, float),
    "interval_s": (int, float), "days": (int, float),
    "idle_window_s": (int, float), "arrival_rate_per_s": (int, float),
    "horizon_s": (int, float), "slo_availability": (int, float),
    "slo_p99_s": (int, float),
}


def spec_to_dict(spec: CampaignSpec) -> Dict[str, Any]:
    """The JSON-ready canonical dict of ``spec``.

    The inverse of :func:`spec_from_dict`; today this is exactly
    :meth:`CampaignSpec.canonical`, named here so the serialization
    authority exports both directions of the round trip.
    """
    return spec.canonical()


def spec_from_dict(data: Dict[str, Any]) -> CampaignSpec:
    """Rebuild a :class:`CampaignSpec` from its ``canonical()`` dict.

    The round trip is hash-exact *and* equality-exact:
    ``spec_from_dict(spec_to_dict(spec))`` compares equal to the
    original and has the same ``spec_hash()`` (and therefore the same
    cache key), which is what lets a resumed sweep re-derive its specs
    from the journal manifest alone.

    Malformed documents — unknown keys, wrong-typed fields, truncated
    fault-plan pairs — raise :class:`SpecValidationError` naming the
    offending key, never a bare ``KeyError``/``TypeError``.
    """
    if not isinstance(data, dict):
        raise SpecValidationError(
            "<document>", f"expected a dict, got {type(data).__name__}")
    known = {spec_field.name for spec_field in dataclass_fields(CampaignSpec)}
    fields = {}
    for name, value in data.items():
        if not isinstance(name, str) or name not in known:
            raise SpecValidationError(
                str(name), f"unknown CampaignSpec field; "
                           f"choose from {sorted(known)}")
        fields[name] = value
    for name, allowed in _SPEC_FIELD_TYPES.items():
        if name not in fields:
            continue
        value = fields[name]
        if isinstance(value, bool) and bool not in allowed or \
                not isinstance(value, allowed):
            raise SpecValidationError(
                name, f"expected {' or '.join(t.__name__ for t in allowed)},"
                      f" got {type(value).__name__} ({value!r})")
    if "audit" in fields and fields["audit"] is not None \
            and not isinstance(fields["audit"], bool):
        raise SpecValidationError(
            "audit", f"expected true, false or null, "
                     f"got {type(fields['audit']).__name__}")
    # JSON turns the pair-tuples into lists; ``__post_init__`` only
    # re-normalizes non-empty ones, so coerce here for equality — and
    # reject truncated or non-pair entries by name.
    for name in _PAIR_FIELDS:
        if name not in fields:
            continue
        value = fields[name]
        if not isinstance(value, (list, tuple)):
            raise SpecValidationError(
                name, f"expected a list of (name, value) pairs, "
                      f"got {type(value).__name__}")
        pairs = []
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise SpecValidationError(
                    name, f"entries are (name, value) pairs, got {item!r}")
            if not isinstance(item[0], str):
                raise SpecValidationError(
                    name, f"pair names are strings, got {item[0]!r}")
            pairs.append(tuple(
                tuple(part) if isinstance(part, list) else part
                for part in item))
        fields[name] = tuple(pairs)
    try:
        return CampaignSpec(**fields)
    except SpecValidationError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError) as error:
        # ``__post_init__`` raises about one field; name the first field
        # present in the document that the error message mentions.
        message = str(error).lower()
        key = next((name for name in fields
                    if name.lower() in message
                    or name.rstrip("s").replace("_", " ") in message),
                   "<spec>")
        raise SpecValidationError(
            key, f"{type(error).__name__}: {error}") from error


def payload_checksum(payload: Any) -> str:
    """A stable content checksum of a JSON-ready payload.

    Both the result cache and the sweep journal store this next to the
    document they write, so a torn or bit-rotted file is detected on
    read (and quarantined) instead of silently deserializing garbage.
    """
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check(data: Dict[str, Any], kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(
            f"expected a {kind!r} document, got {data.get('kind')!r}")
    if data.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {data.get('format_version')!r}")


def save_results(path: Union[str, Path],
                 campaigns: Optional[List[CampaignResult]] = None,
                 cost_reports: Optional[List[CostReport]] = None,
                 metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Write campaigns and cost reports to one JSON file."""
    path = Path(path)
    document = {
        "format_version": FORMAT_VERSION,
        "kind": "results",
        "metadata": dict(metadata or {}),
        "campaigns": [to_dict(campaign) for campaign in (campaigns or [])],
        "cost_reports": [to_dict(report) for report in (cost_reports or [])],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, default=_fallback))
    return path


def load_results(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a results file back into live objects."""
    data = json.loads(Path(path).read_text())
    _check(data, "results")
    return {
        "metadata": data["metadata"],
        "campaigns": [from_dict(CampaignResult, campaign)
                      for campaign in data["campaigns"]],
        "cost_reports": [from_dict(CostReport, report)
                         for report in data["cost_reports"]],
    }


def _fallback(value: Any) -> Any:
    """JSON encoder fallback: stringify anything exotic in run values."""
    return repr(value)
