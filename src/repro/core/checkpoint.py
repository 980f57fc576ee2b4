"""Checkpointed sweeps: an append-only journal with deterministic resume.

Long multi-configuration sweeps — the paper's hundred-iteration
campaigns, the ROADMAP's 10M-request overload runs — are too expensive
to lose to a worker crash or a Ctrl-C.  Because every campaign is a
deterministic function of its :class:`~repro.core.parallel.CampaignSpec`
(the property the parallel engine and result cache are built on), a
killed sweep never needs to start over: re-run only the specs whose
outcomes were not yet journaled and the merged result is bit-identical
to an uninterrupted run.

A :class:`SweepJournal` is a directory::

    journal/
      manifest.json            # the sweep: ordered specs + their hashes
      entries/00003-3fb2c9d1a0e7.json   # one completed outcome
      quarantine/...           # checksum-failed documents, moved aside

* The **manifest** freezes the sweep's identity: the ordered spec list
  (canonical dicts plus spec/calibration hashes and the cache key of
  each spec), the package version, and optionally the CLI argv that
  created it (what ``repro resume <journal>`` re-dispatches).
* **Entries** are append-only — a sweep only ever adds completed
  outcomes.  Every write is atomic (unique tmp file + ``os.replace``)
  and carries a content checksum of its payload, so a torn write from a
  kill -9 is *detected* on the next read, quarantined, and simply
  recomputed: corruption costs one spec, never the sweep.
* **Resume** loads the checksum-verified entries, cross-checks each
  against the manifest (position *and* cache key must agree), and
  reports what is missing.  The supervised runner then executes only
  the missing specs.

The journal deliberately reuses the cache's document shape
(:func:`repro.core.persistence.outcome_to_dict`), so a journal entry is
exactly as replayable as a cache hit — and exactly as bit-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import __version__
from repro.core.cache import cache_key, quarantine, write_atomic
from repro.core.parallel import CampaignOutcome, CampaignSpec
from repro.core.persistence import (
    outcome_from_dict,
    outcome_to_dict,
    payload_checksum,
    spec_from_dict,
)

FORMAT_VERSION = 1


class JournalError(Exception):
    """The journal cannot serve this sweep (missing, foreign, stale)."""


class SweepManifest:
    """The parsed, validated ``manifest.json`` of a sweep journal."""

    def __init__(self, document: Dict[str, Any]):
        if not isinstance(document, dict):
            raise JournalError(
                f"not a sweep manifest: a JSON {type(document).__name__}")
        if document.get("kind") != "sweep-manifest":
            raise JournalError(
                f"not a sweep manifest: kind={document.get('kind')!r}")
        if document.get("format_version") != FORMAT_VERSION:
            raise JournalError(
                f"unsupported manifest format "
                f"{document.get('format_version')!r}")
        self.document = document

    @property
    def keys(self) -> List[str]:
        """The ordered cache keys of every spec in the sweep."""
        return [entry["key"] for entry in self.document["specs"]]

    @property
    def argv(self) -> Optional[List[str]]:
        """The CLI argv that created this journal, when recorded."""
        argv = self.document.get("argv")
        return list(argv) if argv is not None else None

    @property
    def package_version(self) -> str:
        return self.document["package_version"]

    def specs(self) -> List[CampaignSpec]:
        """Rebuild the sweep's specs from their canonical dicts.

        Hash-exact: each rebuilt spec is verified against the spec hash
        recorded at creation time, so a manifest written by a different
        package state cannot silently resume into different campaigns.
        """
        specs = []
        for index, entry in enumerate(self.document["specs"]):
            spec = spec_from_dict(entry["spec"])
            if spec.spec_hash() != entry["spec_hash"]:
                raise JournalError(
                    f"manifest spec #{index} no longer reproduces its "
                    f"recorded hash {entry['spec_hash'][:12]} — the "
                    f"package changed under the journal; re-run the "
                    f"sweep from scratch")
            specs.append(spec)
        return specs


class SweepJournal:
    """Crash-safe progress record for one sweep over a list of specs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- layout -----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def entries_dir(self) -> Path:
        return self.root / "entries"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def _entry_path(self, index: int, key: str) -> Path:
        return self.entries_dir / f"{index:05d}-{key[:12]}.json"

    # -- manifest ---------------------------------------------------------------

    def create(self, specs: Sequence[CampaignSpec],
               argv: Optional[Sequence[str]] = None) -> SweepManifest:
        """Freeze the sweep's identity; atomic, refuses to overwrite."""
        if self.exists():
            raise JournalError(
                f"journal at {self.root} already holds a manifest; "
                f"open() it to resume or choose a fresh path")
        document = {
            "format_version": FORMAT_VERSION,
            "kind": "sweep-manifest",
            "package_version": __version__,
            "argv": list(argv) if argv is not None else None,
            "specs": [{
                "key": cache_key(spec),
                "spec_hash": spec.spec_hash(),
                "calibration_hash": spec.calibration_hash(),
                "spec": spec.canonical(),
            } for spec in specs],
        }
        write_atomic(self.manifest_path,
                     json.dumps(document, indent=2, default=repr))
        return SweepManifest(document)

    def open(self) -> SweepManifest:
        """Load and validate the manifest of an existing journal."""
        try:
            document = json.loads(self.manifest_path.read_text())
        except OSError as error:
            raise JournalError(
                f"no sweep journal at {self.root}: {error}") from error
        except ValueError as error:
            raise JournalError(
                f"unreadable manifest at {self.manifest_path}: "
                f"{error}") from error
        manifest = SweepManifest(document)
        if manifest.package_version != __version__:
            raise JournalError(
                f"journal was written by repro "
                f"{manifest.package_version}, this is {__version__}; "
                f"a resumed sweep would not be bit-identical — re-run "
                f"from scratch")
        return manifest

    def create_or_open(self, specs: Sequence[CampaignSpec],
                       argv: Optional[Sequence[str]] = None,
                       resume: bool = True) -> SweepManifest:
        """Create a fresh journal, or validate + reuse a matching one.

        An existing journal must describe *exactly* this sweep (same
        specs, same order, same effective calibrations); anything else
        raises rather than mixing two sweeps' outcomes.  With
        ``resume=False`` an existing journal is refused outright.
        """
        if not self.exists():
            return self.create(specs, argv=argv)
        if not resume:
            raise JournalError(
                f"journal at {self.root} already exists; pass --resume "
                f"to continue it, or point --journal at a fresh path")
        manifest = self.open()
        expected = [cache_key(spec) for spec in specs]
        if manifest.keys != expected:
            raise JournalError(
                f"journal at {self.root} describes a different sweep "
                f"({len(manifest.keys)} specs vs {len(expected)} "
                f"requested, or differing spec/calibration hashes); "
                f"refusing to mix results")
        return manifest

    # -- entries ----------------------------------------------------------------

    def record(self, index: int, outcome: CampaignOutcome) -> Path:
        """Append one completed outcome (atomic write + checksum)."""
        key = cache_key(outcome.spec)
        payload = outcome_to_dict(outcome)
        document = {
            "format_version": FORMAT_VERSION,
            "kind": "journal-entry",
            "index": index,
            "key": key,
            "spec_hash": outcome.spec.spec_hash(),
            "checksum": payload_checksum(payload),
            "outcome": payload,
        }
        return write_atomic(self._entry_path(index, key),
                            json.dumps(document, default=repr))

    def completed(self,
                  specs: Optional[Sequence[CampaignSpec]] = None,
                  ) -> Dict[int, CampaignOutcome]:
        """Checksum-verified outcomes by manifest position.

        Corrupted entries (torn writes, bit rot, entries that disagree
        with the manifest) are moved to ``quarantine/`` and omitted —
        the resume path recomputes them.  ``specs`` may be passed to
        skip re-deriving them from the manifest.
        """
        manifest = self.open()
        if specs is None:
            specs = manifest.specs()
        keys = manifest.keys
        outcomes: Dict[int, CampaignOutcome] = {}
        if not self.entries_dir.is_dir():
            return outcomes
        for path in sorted(self.entries_dir.glob("*.json")):
            try:
                document = json.loads(path.read_text())
                if not isinstance(document, dict) or \
                        document.get("kind") != "journal-entry" or \
                        document.get("format_version") != FORMAT_VERSION:
                    raise ValueError("not a journal entry")
                index = document["index"]
                if not 0 <= index < len(keys) or \
                        document["key"] != keys[index]:
                    raise ValueError("entry disagrees with manifest")
                payload = document["outcome"]
                if not isinstance(payload, dict) or \
                        document["checksum"] != payload_checksum(payload):
                    raise ValueError("checksum mismatch")
                outcome = outcome_from_dict(payload, specs[index])
                outcome.cached = True
            except (OSError, KeyError, TypeError, ValueError):
                quarantine(path, self.quarantine_dir)
                continue
            outcomes[index] = outcome
        return outcomes

    # -- progress ---------------------------------------------------------------

    def progress(self) -> str:
        """``"<done>/<total> specs journaled"`` for humans."""
        manifest = self.open()
        done = len(self.completed())
        return f"{done}/{len(manifest.keys)} specs journaled"

    def is_complete(self) -> bool:
        manifest = self.open()
        return set(self.completed()) == set(range(len(manifest.keys)))

    def outcomes(self) -> List[CampaignOutcome]:
        """Every outcome in sweep order (raises while incomplete)."""
        manifest = self.open()
        completed = self.completed()
        missing = [index for index in range(len(manifest.keys))
                   if index not in completed]
        if missing:
            raise JournalError(
                f"sweep incomplete: specs {missing} not journaled yet "
                f"(resume it with `repro resume {self.root}`)")
        return [completed[index] for index in range(len(manifest.keys))]

    def __repr__(self) -> str:
        state = "absent"
        if self.exists():
            try:
                state = self.progress()
            except JournalError:
                state = "unreadable"
        return f"SweepJournal(root={str(self.root)!r}, {state})"
