"""Content-addressed on-disk cache for completed campaign results.

Every campaign is a deterministic function of its
:class:`~repro.core.parallel.CampaignSpec` and of the calibration
constants compiled into the package, so a completed campaign never needs
re-simulating: the CLI and the figure benchmarks key results by
``(spec hash, calibration hash, package version)`` and reuse them across
invocations.

Cache location, in precedence order:

1. an explicit ``root`` argument,
2. the ``REPRO_CACHE_DIR`` environment variable,
3. ``~/.cache/repro/campaigns``.

Invalidation is automatic — editing a calibration default, bumping the
package version, or changing any spec field changes the key — but the
cache can always be dropped wholesale with :meth:`ResultCache.clear` or
``rm -rf`` on the directory.

A sweep derives its keys once (:func:`cache_keys`).  An outcome is
encoded once: the text :meth:`ResultCache.put` wrote or
:meth:`ResultCache.get` verified rides on the outcome, so a sweep
journal (whose ``entries/`` is a store in this format) and the cache
copy one text.

Durability: every write goes to a unique temporary file first and is
published with an atomic ``os.replace``, so a crash (or two processes
racing on the same key) can never leave a half-written document behind
the final name.  Every document carries its own key and a content
checksum of its outcome payload; a read that fails either — a truncated
entry, a flipped bit, a document filed under another spec's key —
quarantines the file (``quarantine/`` next to the entries) and reports
a miss, so the caller recomputes instead of replaying garbage.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro import __version__
from repro.core.parallel import CampaignOutcome, CampaignSpec
from repro.core.persistence import (
    outcome_from_dict,
    outcome_to_dict,
    payload_checksum,
)

#: bumped to 2 when the document grew a checksummed ``outcome`` payload,
#: and to 3 when it recorded its own ``key``
FORMAT_VERSION = 3
ENV_VAR = "REPRO_CACHE_DIR"


def write_atomic(path: Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a unique tmp file + ``os.replace``.

    The temporary name embeds the pid so concurrent writers (parallel
    sweeps sharing one cache) never clobber each other's staging file;
    the final rename is atomic on POSIX and Windows alike.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        temporary.write_text(text)
        temporary.replace(path)
    finally:
        if temporary.exists():
            try:
                temporary.unlink()
            except OSError:
                pass
    return path


def quarantine(path: Path) -> Optional[Path]:
    """Move a corrupted document aside (``quarantine/`` sibling dir).

    Returns the quarantined path, or ``None`` when the file vanished or
    could not be moved (in which case it is best-effort deleted so the
    recompute can overwrite it).
    """
    try:
        target = path.parent / "quarantine" / f"{path.name}.corrupt"
        target.parent.mkdir(parents=True, exist_ok=True)
        path.replace(target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def default_cache_dir() -> Path:
    """The cache root this process would use (env override honoured)."""
    override = os.environ.get(ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "campaigns"


def cache_keys(specs: Iterable[CampaignSpec]) -> List[str]:
    """Every spec's :func:`cache_key`, in order.

    A calibration hash depends only on the registered backends and the
    spec's ``calibration_overrides``, so it is computed once per
    distinct override set (told apart by ``repr``, which keeps ``1``,
    ``1.0`` and ``True`` apart).  The memo lives for this call only:
    backends may be registered between sweeps.
    """
    calibrations: Dict[str, str] = {}
    keys = []
    for spec in specs:
        overrides = repr(spec.calibration_overrides)
        if overrides not in calibrations:
            calibrations[overrides] = spec.calibration_hash()
        blob = json.dumps({
            "spec": spec.spec_hash(),
            "calibration": calibrations[overrides],
            "version": __version__,
        }, sort_keys=True)
        keys.append(hashlib.sha256(blob.encode()).hexdigest())
    return keys


def cache_key(spec: CampaignSpec) -> str:
    """``sha256(spec hash, calibration hash, package version)``."""
    return cache_keys([spec])[0]


class ResultCache:
    """Stores one JSON document per completed campaign spec."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, spec: CampaignSpec,
                 key: Optional[str] = None) -> Path:
        return self.root / f"{key or cache_key(spec)}.json"

    def get(self, spec: CampaignSpec,
            key: Optional[str] = None) -> Optional[CampaignOutcome]:
        """The cached outcome for ``spec`` (whose ``key`` the caller
        may pass), or ``None`` on a miss.

        Unreadable or structurally stale documents count as misses.  A
        document recording another key (another spec's results) or
        whose checksum does not match its outcome payload (truncated
        write, disk corruption) is quarantined and also reported as a
        miss — the caller recomputes and overwrites.
        """
        key = key or cache_key(spec)
        path = self.path_for(spec, key)
        try:
            raw = path.read_text()
        except OSError:
            return None
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                raise ValueError("not a cache document")
            if document.get("format_version") != FORMAT_VERSION:
                return None
            if document.get("key") != key:
                raise ValueError("filed under another spec's key")
            payload = document["outcome"]
            if not isinstance(payload, dict) or \
                    document.get("checksum") != payload_checksum(payload):
                raise ValueError("checksum mismatch")
            outcome = outcome_from_dict(payload, spec)
        except (KeyError, TypeError, ValueError):
            quarantine(path)
            return None
        outcome.cached = True
        outcome.document = (key, raw)
        return outcome

    def put(self, spec: CampaignSpec, outcome: CampaignOutcome,
            key: Optional[str] = None) -> Path:
        """Persist ``outcome`` under ``spec``'s key; returns the path.

        An outcome that already carries its document for this key is
        written as is, not encoded again.  The write is atomic (unique
        tmp file + ``os.replace``) and the document carries its key and
        a checksum of the outcome payload, so a crash mid-write can
        never poison a later read.
        """
        key = key or cache_key(spec)
        if outcome.document is None or outcome.document[0] != key:
            payload = outcome_to_dict(outcome)
            outcome.document = (key, json.dumps({
                "format_version": FORMAT_VERSION,
                "kind": "campaign-cache",
                "key": key,
                "package_version": __version__,
                "spec": spec.canonical(),
                "checksum": payload_checksum(payload),
                "outcome": payload,
            }, default=repr))
        return write_atomic(self.path_for(spec, key), outcome.document[1])

    def clear(self) -> int:
        """Delete every cached document; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    def __repr__(self) -> str:
        return f"ResultCache(root={str(self.root)!r}, entries={len(self)})"
