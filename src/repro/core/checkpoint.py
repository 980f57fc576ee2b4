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
      manifest.json            # the sweep: ordered specs + cache keys
      entries/3fb2c9d1...json  # one completed outcome, named by cache key
      entries/quarantine/...   # corrupt or misfiled entries, moved aside

* The **manifest** freezes the sweep's identity: the ordered spec list
  (canonical dicts plus the cache key of each spec), the package
  version, and optionally the CLI argv that created it (what
  ``repro resume <journal>`` re-dispatches).
* **Entries** are a :class:`~repro.core.cache.ResultCache` store: cache
  documents named by cache key, written atomically and read through
  :meth:`ResultCache.get`, which verifies each one's key and checksum.
  A torn write from a kill -9, bit rot or an entry from another sweep
  is quarantined and simply recomputed: corruption costs one spec,
  never the sweep.  The journal keeps its own copy, so ``--no-cache``
  sweeps journal too and ``repro cache --clear`` leaves it complete.
* **Resume** loads the verified entries and reports what is missing.
  The supervised runner then executes only the missing specs.  It
  journals a cache hit, and fills the cache from an entry, by copying
  the verified document text, never by encoding the outcome again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro import __version__
from repro.core.cache import ResultCache, cache_keys, write_atomic
from repro.core.parallel import CampaignOutcome, CampaignSpec
from repro.core.persistence import spec_from_dict

#: bumped to 2 when entries became cache documents named by cache key
FORMAT_VERSION = 2


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
                f"{document.get('format_version')!r} (this repro writes "
                f"format {FORMAT_VERSION}); re-run the sweep from scratch")
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

        Key-exact: each rebuilt spec must reproduce the cache key
        recorded at creation time, so a manifest written by a different
        package state cannot silently resume into different campaigns.
        """
        specs = [spec_from_dict(entry["spec"])
                 for entry in self.document["specs"]]
        for index, (key, recorded) in enumerate(zip(cache_keys(specs),
                                                    self.keys)):
            if key != recorded:
                raise JournalError(
                    f"manifest spec #{index} no longer reproduces its "
                    f"recorded key {recorded[:12]} — the package changed "
                    f"under the journal; re-run the sweep from scratch")
        return specs


class SweepJournal:
    """Crash-safe progress record for one sweep over a list of specs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        #: completed outcomes: a result-cache store inside the journal
        self.entries = ResultCache(self.root / "entries")

    # -- layout -----------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    # -- manifest ---------------------------------------------------------------

    def create(self, specs: Sequence[CampaignSpec],
               argv: Optional[Sequence[str]] = None,
               keys: Optional[Sequence[str]] = None) -> SweepManifest:
        """Freeze the sweep's identity; atomic, refuses to overwrite.

        ``keys`` are the specs' cache keys, when already derived.
        """
        if self.exists():
            raise JournalError(
                f"journal at {self.root} already holds a manifest; "
                f"open() it to resume or choose a fresh path")
        if keys is None:
            keys = cache_keys(specs)
        document = {
            "format_version": FORMAT_VERSION,
            "kind": "sweep-manifest",
            "package_version": __version__,
            "argv": list(argv) if argv is not None else None,
            "specs": [{"key": key, "spec": spec.canonical()}
                      for spec, key in zip(specs, keys)],
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
                       resume: bool = True,
                       keys: Optional[Sequence[str]] = None,
                       ) -> SweepManifest:
        """Create a fresh journal, or validate + reuse a matching one.

        An existing journal must describe *exactly* this sweep (same
        specs, same order, same effective calibrations); anything else
        raises rather than mixing two sweeps' outcomes.  With
        ``resume=False`` an existing journal is refused outright.
        ``keys`` are the specs' cache keys, when already derived.
        """
        if not self.exists():
            return self.create(specs, argv=argv, keys=keys)
        if not resume:
            raise JournalError(
                f"journal at {self.root} already exists; pass --resume "
                f"to continue it, or point --journal at a fresh path")
        manifest = self.open()
        if keys is None:
            keys = cache_keys(specs)
        if manifest.keys != list(keys):
            raise JournalError(
                f"journal at {self.root} describes a different sweep "
                f"({len(manifest.keys)} specs vs {len(keys)} "
                f"requested, or differing spec/calibration hashes); "
                f"refusing to mix results")
        return manifest

    # -- entries ----------------------------------------------------------------

    def record(self, index: int, outcome: CampaignOutcome,
               key: Optional[str] = None) -> Path:
        """Journal the completed outcome of sweep position ``index``.

        The entry is the outcome's cache document, filed under ``key``
        (derived from ``outcome.spec`` when omitted), not under
        ``index``: a spec listed twice shares one entry.
        """
        return self.entries.put(outcome.spec, outcome, key)

    def completed(self,
                  specs: Optional[Sequence[CampaignSpec]] = None,
                  keys: Optional[Sequence[str]] = None,
                  ) -> Dict[int, CampaignOutcome]:
        """Checksum-verified outcomes of ``specs`` by position.

        ``specs`` and their cache ``keys`` default to the manifest's.
        Corrupt or misfiled entries are moved to ``entries/quarantine/``
        and omitted — the resume path recomputes them.
        """
        if keys is None:
            manifest = self.open()
            keys = manifest.keys
            if specs is None:
                specs = manifest.specs()
        outcomes: Dict[int, CampaignOutcome] = {}
        if not self.entries.root.is_dir():
            return outcomes
        for index, (spec, key) in enumerate(zip(specs, keys)):
            outcome = self.entries.get(spec, key)
            if outcome is not None:
                outcomes[index] = outcome
        return outcomes

    # -- progress ---------------------------------------------------------------

    def progress(self) -> str:
        """``"<done>/<total> specs journaled"`` for humans."""
        total = len(self.open().keys)
        return f"{len(self.completed())}/{total} specs journaled"

    def is_complete(self) -> bool:
        return len(self.completed()) == len(self.open().keys)

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
