"""Deterministic campaign fuzzer: the spec space, searched by machine.

The repro's core claim — every campaign is a pure, bit-identical
function of its :class:`~repro.core.parallel.CampaignSpec` on every
execution path — is only as strong as the configurations it has been
checked at.  This module turns the invariant auditor from a spot-check
into a search:

* :class:`SpecGenerator` — draws *valid* specs from a seeded RNG
  stream: platform × workload × arrival model × calibration overrides
  (from each backend's :meth:`fuzz_calibration_space`) ×
  :class:`~repro.platforms.faults.FaultPlan` (including correlated
  outages) × :class:`~repro.core.mitigation.MitigationPolicy` ×
  overload knobs.  Weights are structured so deep fault/mitigation
  combinations (dedupe-off under duplication, gray outages, breaker +
  hedging stacks) are reachable; every draw is reproducible from
  ``(seed, index)`` alone.
* :func:`check_spec` — the differential oracle: executes one spec under
  the invariant auditor across the serial (this process), pool (a
  worker process), cache-replay and persistence paths and asserts
  bit-identical outcome checksums, typed-exception parity, and spec
  round-trip exactness through
  :func:`~repro.core.persistence.spec_to_dict` /
  :func:`~repro.core.persistence.spec_from_dict`.
* :func:`shrink` — greedily minimizes a failing spec (drop fault
  entries, zero mitigation features, drop overrides, shrink counts and
  durations) while preserving the failure *fingerprint*, so the
  reported reproducer is the smallest spec that still fails the same
  way.
* :func:`write_repro` / :func:`read_repro` / :func:`replay_corpus` —
  checksummed repro documents (shaped like journal entries) collected
  in a regression corpus that ``repro fuzz replay`` and CI re-check, so
  every found bug stays fixed.
* :func:`run_fuzz` — a fuzz session: specs execute under
  :class:`~repro.core.supervise.SupervisedRunner` with an optional
  :class:`~repro.core.checkpoint.SweepJournal`, so fuzzing itself is
  crash-safe, SIGINT-drainable and resumable with the same journal
  plumbing the campaign commands use.  Those worker-process outcomes
  are the oracle's pool path, so each spec runs once per path.  Same
  seed + budget ⇒ same specs, same verdicts, same corpus.

Fingerprints are deliberately *stable* strings (no spec-dependent
values), so the shrinker can require "still fails the same way" across
candidate specs and a corpus entry keeps meaning the same bug across
package versions.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.cache import ResultCache, write_atomic
from repro.core.checkpoint import SweepJournal
from repro.core.parallel import (
    ARRIVAL_KINDS,
    WORKLOAD_VARIANTS,
    CampaignOutcome,
    CampaignSpec,
    ParallelRunner,
    SpecExecutionError,
    execute_spec,
)
from repro.core.persistence import (
    SpecValidationError,
    outcome_from_dict,
    outcome_to_dict,
    payload_checksum,
    spec_from_dict,
    spec_to_dict,
)
from repro.core.supervise import SupervisedRunner

FORMAT_VERSION = 1

#: Environment variable gating seeded *planted* bugs (test harness for
#: the fuzzer itself).  ``REPRO_FUZZ_PLANT=dedupe`` perturbs the serial
#: path of any spec that disables completion dedupe while queue
#: duplication is active — a calibration-gated divergence the fuzzer
#: must find, shrink and replay.
PLANT_ENV = "REPRO_FUZZ_PLANT"


#: Which registered backend each variant runs on (for calibration
#: override draws).
VARIANT_BACKENDS: Dict[str, str] = {
    "AWS-Lambda": "aws", "AWS-Step": "aws",
    "Az-Func": "azure", "Az-Queue": "azure",
    "Az-Dorch": "azure", "Az-Dent": "azure",
    "GCP-Func": "gcp", "GCP-Flows": "gcp",
}

#: Differential paths the oracle compares, in report order.  ``pool``
#: is the one that crosses a process boundary.
PATHS = ("serial", "pool", "cache", "persistence")


class FuzzError(Exception):
    """A fuzz artifact (repro document, corpus entry) is unusable."""


# -- the generator -----------------------------------------------------------------


class SpecGenerator:
    """Valid :class:`CampaignSpec` draws from a seeded RNG stream.

    ``draw(index)`` is a pure function of ``(seed, index)``: each draw
    gets its own ``random.Random(f"fuzz:{seed}:{index}:{attempt}")``
    stream, so draws are independent of each other and of how many were
    made before.  Rarely, a drawn combination fails spec validation
    (e.g. an audited spec drawing a telemetry-killing override); the
    attempt salt deterministically re-draws until one validates.
    """

    #: bound on deterministic re-draws for one index
    MAX_ATTEMPTS = 25

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self, budget: int) -> List[CampaignSpec]:
        """The first ``budget`` specs of this seed's stream."""
        return [self.draw(index) for index in range(budget)]

    def draw(self, index: int) -> CampaignSpec:
        last_error: Optional[Exception] = None
        for attempt in range(self.MAX_ATTEMPTS):
            stream = random.Random(
                f"fuzz:{self.seed}:{index}:{attempt}")
            try:
                return self._draw(stream)
            except (ValueError, KeyError) as error:
                last_error = error
        raise RuntimeError(
            f"no valid spec after {self.MAX_ATTEMPTS} attempts for "
            f"(seed={self.seed}, index={index}): {last_error}")

    # -- drawing ----------------------------------------------------------------

    def _draw(self, stream: random.Random) -> CampaignSpec:
        workload = self._weighted(stream, (("ml-training", 0.45),
                                           ("ml-inference", 0.25),
                                           ("video", 0.30)))
        deployment = stream.choice(WORKLOAD_VARIANTS[workload])
        campaign = self._weighted(stream, (("latency", 0.30),
                                           ("coldstart", 0.08),
                                           ("fanout", 0.07),
                                           ("reliability", 0.20),
                                           ("overload", 0.15),
                                           ("resilience", 0.20)))
        fields: Dict[str, Any] = {
            "deployment": deployment,
            "workload": workload,
            "scale": "small",
            "campaign": campaign,
            # Shared workload seed keeps the expensive dataset/model
            # memo hot across the whole session; behavioural diversity
            # comes from the testbed seed.
            "workload_seed": 0,
            "seed": stream.randrange(1000),
            "iterations": stream.randint(1, 3),
            "warmup": stream.randint(0, 1),
            "audit": True,
        }
        if workload == "video":
            fields["fanout"] = stream.choice((2, 3, 4))
        if campaign == "coldstart":
            fields["interval_s"] = 3600.0
            fields["days"] = stream.choice((0.125, 0.25))
        elif campaign == "fanout":
            fields["batch"] = stream.choice((0, 2))
        elif campaign == "overload":
            fields["arrival"] = stream.choice(ARRIVAL_KINDS)
            fields["arrival_rate_per_s"] = stream.choice((2.0, 5.0, 10.0))
            fields["horizon_s"] = stream.choice((5.0, 10.0, 20.0))
        if stream.random() < 0.25:
            fields["idle_window_s"] = stream.choice((300.0, 900.0))
        # Faults are the point: draw a plan often, more often for the
        # campaigns built to study them.
        fault_chance = 0.75 if campaign in ("reliability",
                                            "resilience") else 0.45
        if stream.random() < fault_chance:
            fields["fault_plan"] = self._draw_fault_plan(stream, campaign)
        if campaign == "resilience" and stream.random() < 0.6:
            fields["mitigation"] = self._draw_mitigation(stream)
        if stream.random() < 0.4:
            overrides = self._draw_overrides(
                stream, VARIANT_BACKENDS[deployment])
            if overrides:
                fields["calibration_overrides"] = overrides
        return CampaignSpec(**fields)

    def _draw_fault_plan(self, stream: random.Random,
                         campaign: str) -> Tuple[Tuple[str, Any], ...]:
        features = ("crash", "error", "straggler", "queue-delay",
                    "duplication", "retries", "outage")
        if campaign in ("latency", "coldstart", "fanout"):
            # run_campaign aborts on a failed run by design (the
            # tolerant executors are reliability/overload/resilience),
            # so these campaigns only draw faults the platforms absorb.
            features = ("straggler", "queue-delay", "duplication",
                        "retries")
        count = self._weighted(stream, ((1, 0.45), (2, 0.35), (3, 0.20)))
        chosen = stream.sample(features, count)
        items: Dict[str, Any] = {}
        for feature in sorted(chosen):
            if feature == "crash":
                items["crash_probability"] = stream.choice((0.1, 0.3))
            elif feature == "error":
                items["error_probability"] = stream.choice((0.1, 0.25))
            elif feature == "straggler":
                items["straggler_probability"] = 0.2
                factor = stream.choice((2.0, 4.0))
                if campaign in ("latency", "coldstart", "fanout"):
                    # A 4x straggler can push the longest functions past
                    # a platform timeout ceiling (GCP's 540s) — run-
                    # killing, which the intolerant campaigns can't
                    # absorb.  The draw still happens to keep the
                    # stream stable.
                    factor = 2.0
                items["straggler_factor"] = factor
            elif feature == "queue-delay":
                items["queue_delay_probability"] = 0.25
                items["queue_delay_s"] = stream.choice((1.0, 5.0))
            elif feature == "duplication":
                items["queue_duplication_probability"] = \
                    stream.choice((0.3, 0.6))
                # The deep combo the auditor exists for: duplicates
                # with the consumer-side dedupe switched off.
                if stream.random() < 0.4:
                    items["completion_dedupe"] = False
            elif feature == "retries":
                items["retry_max_attempts"] = stream.randint(2, 3)
                items["retry_interval_s"] = 1.0
            elif feature == "outage":
                start = stream.choice((5.0, 30.0, 120.0))
                duration = stream.choice((10.0, 60.0))
                items["outage_windows"] = ((start, duration),)
                items["outage_mode"] = stream.choice(("crash", "gray"))
                if items["outage_mode"] == "gray":
                    items["gray_latency_factor"] = 3.0
                    items["gray_error_probability"] = 0.2
                if stream.random() < 0.3:
                    items["brownout_delay_s"] = 5.0
                # Partition drops lose messages permanently; only the
                # resilience executor's hard request timeout backstops a
                # run stranded on one (reliability/overload would wait
                # forever).  The draw still happens so the stream — and
                # every (seed, index) spec after it — stays stable.
                if stream.random() < 0.3 and campaign == "resilience":
                    items["partition_drop_probability"] = 0.2
        return tuple(sorted(items.items()))

    def _draw_mitigation(self,
                         stream: random.Random) -> Tuple[Tuple[str, Any], ...]:
        items: Dict[str, Any] = {}
        if stream.random() < 0.6:
            items["breaker_failure_threshold"] = stream.choice((2, 3))
            items["breaker_recovery_timeout_s"] = 10.0
        if stream.random() < 0.5:
            items["hedge_after_s"] = stream.choice((1.0, 5.0))
            items["max_hedges"] = 1
        if stream.random() < 0.5:
            items["deadline_factor"] = 3.0
            items["deadline_min_s"] = 1.0
        return tuple(sorted(items.items()))

    def _draw_overrides(self, stream: random.Random,
                        backend_name: str) -> Tuple[Tuple[str, Any], ...]:
        from repro.platforms.backend import get_backend
        space = get_backend(backend_name).fuzz_calibration_space()
        if not space:
            return ()
        names = sorted(space)
        count = min(len(names), self._weighted(stream, ((1, 0.7),
                                                        (2, 0.3))))
        chosen = stream.sample(names, count)
        return tuple(sorted(
            (f"{backend_name}.{name}", stream.choice(space[name]))
            for name in chosen))

    @staticmethod
    def _weighted(stream: random.Random,
                  choices: Sequence[Tuple[Any, float]]) -> Any:
        total = sum(weight for _, weight in choices)
        point = stream.random() * total
        for value, weight in choices:
            point -= weight
            if point <= 0:
                return value
        return choices[-1][0]


# -- the differential oracle -------------------------------------------------------


@dataclass(frozen=True)
class PathResult:
    """One execution path's observation of a spec.

    Exactly one of ``checksum`` (the outcome payload checksum) and
    ``error`` (the normalized ``"ExcType: message"`` fingerprint) is
    set.
    """

    path: str
    checksum: Optional[str] = None
    error: Optional[str] = None


@dataclass
class FuzzVerdict:
    """The oracle's verdict for one spec: path results plus findings.

    ``findings`` are stable fingerprint strings; an empty tuple means
    every path agreed and every round trip was exact.
    """

    spec: CampaignSpec
    spec_hash: str
    paths: Tuple[PathResult, ...]
    findings: Tuple[str, ...]
    index: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.findings


def _error_fingerprint(error: BaseException) -> str:
    """Normalize any path's exception to ``"ExcType: message"``.

    :class:`SpecExecutionError` already carries exactly this string for
    the *inner* error (workers format it the same way), so serial and
    pooled failures compare equal when they are the same failure.
    """
    if isinstance(error, SpecExecutionError):
        return error.message
    return f"{type(error).__name__}: {error}"


def _finding_for_error(error: BaseException) -> str:
    """The stable finding fingerprint for a spec that failed all paths.

    Invariant violations name the broken invariants (stable across
    shrinking); everything else is a crash keyed by exception type.
    """
    from repro.core.audit import InvariantViolation
    inner = getattr(error, "cause", None) or error
    if isinstance(inner, InvariantViolation):
        names = sorted({check.invariant for check in inner.violations})
        return "invariant:" + ",".join(names)
    if isinstance(error, SpecExecutionError):
        head = error.message.split(":", 1)[0]
        if head == "InvariantViolation":
            # Worker-side violation: the names live in the message's
            # bracketed headers.
            names = sorted({line.split("]")[0].lstrip("[")
                            for line in error.message.splitlines()
                            if line.startswith("[")})
            if names:
                return "invariant:" + ",".join(names)
        return f"crash:{head}"
    return f"crash:{type(error).__name__}"


def expected_violation(spec: CampaignSpec) -> bool:
    """Does this spec *deliberately* break an audited invariant?

    Disabling completion dedupe while duplication faults are armed
    models a broken at-least-once consumer whose double-processed (and
    double-billed) completions the auditor must catch — so an
    :class:`InvariantViolation` raised identically on every path is the
    laboratory working as designed, not a fuzz finding.  Cross-path
    parity of the violation is still enforced.
    """
    plan = dict(spec.fault_plan)
    return (plan.get("completion_dedupe", True) is False
            and plan.get("queue_duplication_probability", 0) > 0)


def planted_bug_active(spec: CampaignSpec) -> bool:
    """Is the seeded planted bug armed *and* triggered by this spec?"""
    if os.environ.get(PLANT_ENV, "") != "dedupe":
        return False
    return expected_violation(spec)


def _outcome_checksum(outcome: CampaignOutcome) -> str:
    return payload_checksum(outcome_to_dict(outcome))


def check_spec(spec: CampaignSpec,
               pool: Optional[PathResult] = None) -> FuzzVerdict:
    """Differentially execute ``spec`` and return the oracle's verdict.

    Paths checked:

    ``serial``
        :func:`execute_spec` in this process.
    ``pool``
        The spec in a worker process: ``pool`` when the caller already
        observed it there (a fuzz session's supervised run), otherwise
        a one-worker :class:`ParallelRunner` run.
    ``cache``
        The serial outcome written to and re-read from a fresh
        :class:`ResultCache` (content-addressed replay).
    ``persistence``
        The serial outcome round-tripped through JSON text and
        :func:`outcome_from_dict`.

    Plus, always, spec round-trip exactness through
    :func:`spec_to_dict`/:func:`spec_from_dict`.
    """
    findings: List[str] = []
    results: List[PathResult] = []

    # -- serial -----------------------------------------------------------------
    serial_outcome: Optional[CampaignOutcome] = None
    serial_error: Optional[BaseException] = None
    try:
        serial_outcome = execute_spec(spec)
    except Exception as error:
        serial_error = error
        fingerprint = _error_fingerprint(error)
        if planted_bug_active(spec):
            # The planted bug, error flavor: the serial path reports
            # the dedupe violation with a mangled diagnostic, breaking
            # typed-exception parity with the other paths.
            fingerprint += " [dedupe-miscount]"
        results.append(PathResult("serial", error=fingerprint))
    else:
        payload = outcome_to_dict(serial_outcome)
        if planted_bug_active(spec):
            # The planted bug: the serial path mis-counts under
            # dedupe-off duplication (a calibration-gated divergence
            # the differential oracle must catch).
            payload = dict(payload)
            payload["idle_transactions"] = \
                payload.get("idle_transactions", 0) + 1
        results.append(PathResult("serial",
                                  checksum=payload_checksum(payload)))

    # -- pool -------------------------------------------------------------------
    if pool is None:
        try:
            pool_outcome = ParallelRunner(workers=1).run([spec])[0]
        except Exception as error:
            pool = PathResult("pool", error=_error_fingerprint(error))
        else:
            pool = PathResult("pool",
                              checksum=_outcome_checksum(pool_outcome))
    results.append(pool)

    # -- cache + persistence (only meaningful given a serial outcome) -----------
    if serial_outcome is not None:
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
            cache = ResultCache(tmp)
            cache.put(spec, serial_outcome)
            hit = cache.get(spec)
        if hit is None:
            findings.append("roundtrip:cache-miss")
            results.append(PathResult("cache", error="cache: miss"))
        else:
            results.append(PathResult("cache",
                                      checksum=_outcome_checksum(hit)))
        try:
            text = json.dumps(outcome_to_dict(serial_outcome),
                              default=repr)
            rebuilt = outcome_from_dict(json.loads(text), spec)
            results.append(PathResult(
                "persistence", checksum=_outcome_checksum(rebuilt)))
        except Exception as error:
            findings.append("roundtrip:outcome-persistence")
            results.append(PathResult("persistence",
                                      error=_error_fingerprint(error)))

    # -- compare ----------------------------------------------------------------
    serial_result = results[0]
    for other in results[1:]:
        if serial_result.error is not None or other.error is not None:
            if serial_result.error != other.error:
                findings.append(
                    f"error-parity:serial-vs-{other.path}")
        elif serial_result.checksum != other.checksum:
            findings.append(f"divergence:serial-vs-{other.path}")
    if serial_error is not None:
        finding = _finding_for_error(serial_error)
        if not (finding.startswith("invariant:")
                and expected_violation(spec)):
            findings.append(finding)

    # -- spec round trip --------------------------------------------------------
    try:
        rebuilt_spec = spec_from_dict(
            json.loads(json.dumps(spec_to_dict(spec), default=repr)))
    except SpecValidationError:
        findings.append("roundtrip:spec-validation")
    else:
        if rebuilt_spec != spec:
            findings.append("roundtrip:spec-equality")
        elif rebuilt_spec.spec_hash() != spec.spec_hash():
            findings.append("roundtrip:spec-hash")

    ordered = tuple(dict.fromkeys(findings))   # dedupe, keep order
    return FuzzVerdict(spec=spec, spec_hash=spec.spec_hash(),
                       paths=tuple(results), findings=ordered)


# -- the shrinker ------------------------------------------------------------------

#: Scalar fields the shrinker tries to pull toward their minimal value.
_SHRINK_TARGETS: Tuple[Tuple[str, Any], ...] = (
    ("iterations", 1),
    ("warmup", 0),
    ("fanout", 2),
    ("batch", 0),
    ("days", 0.125),
    ("idle_window_s", 0.0),
    ("think_time_s", 1.0),
    ("settle_time_s", 1.0),
    ("horizon_s", 5.0),
    ("arrival_rate_per_s", 2.0),
    ("slo_p99_s", 0.0),
    ("seed", 0),
)


def shrink(spec: CampaignSpec, fingerprint: str,
           check: Optional[Callable[[CampaignSpec], FuzzVerdict]] = None,
           max_checks: int = 150) -> Tuple[CampaignSpec, int]:
    """Greedily minimize ``spec`` while ``fingerprint`` keeps appearing.

    Deterministic passes (drop fault-plan entries, drop mitigation
    pairs, drop calibration overrides and invoke kwargs, pull counts
    and durations toward minimal) repeat until a fixpoint; a candidate
    is accepted only when re-checking it still yields ``fingerprint``.
    Returns the minimal spec plus the number of oracle checks spent.
    """
    oracle = check or check_spec
    checks = 0

    def still_fails(candidate: CampaignSpec) -> bool:
        nonlocal checks
        checks += 1
        try:
            return fingerprint in oracle(candidate).findings
        except Exception:
            return False

    current = spec
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in _shrink_candidates(current):
            if checks >= max_checks:
                break
            if still_fails(candidate):
                current = candidate
                improved = True
                break   # restart passes from the smaller spec
    return current, checks


def _shrink_candidates(spec: CampaignSpec):
    """Candidate smaller specs, in deterministic priority order.

    Invalid candidates (a drop that breaks spec validation) are
    silently skipped — the caller only sees constructible specs.
    """
    for spec_field in ("fault_plan", "mitigation",
                       "calibration_overrides", "invoke_kwargs"):
        items = getattr(spec, spec_field)
        for index in range(len(items)):
            smaller = items[:index] + items[index + 1:]
            candidate = _try_replace(spec, **{spec_field: smaller})
            if candidate is not None:
                yield candidate
    for name, target in _SHRINK_TARGETS:
        if getattr(spec, name) != target:
            candidate = _try_replace(spec, **{name: target})
            if candidate is not None:
                yield candidate


def _try_replace(spec: CampaignSpec, **changes: Any,
                 ) -> Optional[CampaignSpec]:
    try:
        return replace(spec, **changes)
    except (ValueError, KeyError, TypeError):
        return None


# -- repro documents + corpus ------------------------------------------------------


def repro_document(spec: CampaignSpec, fingerprint: str,
                   found: Optional[Dict[str, int]] = None,
                   ) -> Dict[str, Any]:
    """The JSON document shape of one shrunk reproducer.

    Checksummed like a journal entry: ``checksum`` covers the
    fingerprint and the canonical spec, so a hand-edited or bit-rotted
    corpus entry is detected on read instead of silently replaying a
    different bug.
    """
    canonical = spec_to_dict(spec)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "fuzz-repro",
        "fingerprint": fingerprint,
        "spec_hash": spec.spec_hash(),
        "found": dict(found) if found else None,
        "checksum": payload_checksum({"fingerprint": fingerprint,
                                      "spec": canonical}),
        "spec": canonical,
    }


def write_repro(path: Union[str, Path], spec: CampaignSpec,
                fingerprint: str,
                found: Optional[Dict[str, int]] = None) -> Path:
    """Atomically write one repro document."""
    document = repro_document(spec, fingerprint, found=found)
    return write_atomic(Path(path),
                        json.dumps(document, indent=2, sort_keys=True,
                                   default=repr))


def read_repro(path: Union[str, Path],
               ) -> Tuple[CampaignSpec, str, Dict[str, Any]]:
    """Load + verify one repro document; returns (spec, fingerprint,
    document).  Raises :class:`FuzzError` on anything unusable."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise FuzzError(f"unreadable repro at {path}: {error}") from error
    if not isinstance(document, dict) or \
            document.get("kind") != "fuzz-repro":
        raise FuzzError(f"{path} is not a fuzz-repro document")
    if document.get("format_version") != FORMAT_VERSION:
        raise FuzzError(
            f"{path}: unsupported format version "
            f"{document.get('format_version')!r}")
    fingerprint = document.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise FuzzError(f"{path}: missing fingerprint")
    expected = payload_checksum({"fingerprint": fingerprint,
                                 "spec": document.get("spec")})
    if document.get("checksum") != expected:
        raise FuzzError(
            f"{path}: checksum mismatch — the document was edited or "
            f"corrupted; regenerate it with `repro fuzz shrink`")
    try:
        spec = spec_from_dict(document["spec"])
    except SpecValidationError as error:
        raise FuzzError(f"{path}: {error}") from error
    return spec, fingerprint, document


def repro_filename(spec: CampaignSpec, fingerprint: str) -> str:
    """Deterministic corpus filename: fingerprint slug + spec hash."""
    slug = "".join(char if char.isalnum() else "-"
                   for char in fingerprint).strip("-")[:48]
    return f"{slug}-{spec.spec_hash()[:12]}.json"


@dataclass
class ReplayResult:
    """One corpus entry's replay outcome."""

    path: Path
    fingerprint: str
    #: True when the recorded bug still reproduces (the entry is *red*)
    reproduced: bool
    findings: Tuple[str, ...] = ()
    error: Optional[str] = None   # unreadable/invalid entry


def replay_corpus(corpus_dir: Union[str, Path],
                  check: Optional[Callable[[CampaignSpec], FuzzVerdict]]
                  = None) -> List[ReplayResult]:
    """Re-check every corpus entry; green means the bug stays fixed."""
    oracle = check or check_spec
    results: List[ReplayResult] = []
    corpus = Path(corpus_dir)
    for path in sorted(corpus.glob("*.json")):
        try:
            spec, fingerprint, _ = read_repro(path)
        except FuzzError as error:
            results.append(ReplayResult(path=path, fingerprint="",
                                        reproduced=False,
                                        error=str(error)))
            continue
        verdict = oracle(spec)
        results.append(ReplayResult(
            path=path, fingerprint=fingerprint,
            reproduced=fingerprint in verdict.findings,
            findings=verdict.findings))
    return results


# -- the fuzz session --------------------------------------------------------------


class _JournalSlice(SweepJournal):
    """The session's journal, as one chunk's runner sees it.

    The session freezes one manifest for the *entire* spec list up
    front, then feeds specs to :class:`SupervisedRunner` in chunks (so
    a time budget can stop between chunks).  Entries are filed by cache
    key, so the chunk's runner records and reads them directly; this
    view only leaves manifest creation to the session — preserving the
    runner's drain-to-journal signal behaviour and ``repro resume``
    compatibility unchanged.
    """

    def create_or_open(self, specs, argv=None, resume=True, keys=None):
        return self.open()   # the session already created the manifest


@dataclass
class FuzzSessionResult:
    """One fuzz session's full ledger."""

    seed: int
    budget: int
    verdicts: List[FuzzVerdict] = field(default_factory=list)
    #: (verdict, shrunk spec, fingerprint, corpus path) per finding
    corpus_paths: List[Path] = field(default_factory=list)
    #: specs actually executed (< budget when the time budget ran out)
    executed: int = 0
    #: True when a --time-budget stopped the session early
    exhausted: bool = False

    @property
    def findings(self) -> List[FuzzVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.ok]

    @property
    def ok(self) -> bool:
        return not self.findings


def run_fuzz(seed: int, budget: int,
             time_budget_s: Optional[float] = None,
             journal: Optional[Union[str, Path, SweepJournal]] = None,
             cache: Optional[ResultCache] = None,
             workers: int = 1,
             corpus_dir: Optional[Union[str, Path]] = None,
             shrink_findings: bool = True,
             argv: Optional[Sequence[str]] = None,
             resume: bool = False,
             spec_timeout_s: Optional[float] = None,
             max_restarts: int = 2,
             log: Callable[[str], None] = lambda line: None,
             ) -> FuzzSessionResult:
    """One deterministic fuzz session.

    Draws ``budget`` specs from ``seed``'s stream, executes them under
    :class:`SupervisedRunner` (worker processes — the oracle's pool
    path) with an optional crash-safe journal, differentially checks
    every executed spec, shrinks each finding to a minimal reproducer
    and writes it to ``corpus_dir``.

    Determinism: with no time budget, two sessions with the same
    ``(seed, budget)`` produce identical spec sequences, identical
    verdicts and identical corpus contents.  A ``time_budget_s`` only
    ever truncates the sequence at a chunk boundary — what *was*
    executed is still identical — and the journal makes the remainder
    resumable (``repro resume`` or ``--resume``).

    ``KeyboardInterrupt`` propagates to the caller after the runner has
    drained completed outcomes into the journal, so the CLI can honor
    the exit-130 resume-hint contract the campaign commands share.
    """
    generator = SpecGenerator(seed)
    specs = generator.specs(budget)
    result = FuzzSessionResult(seed=seed, budget=budget)

    if journal is not None and not isinstance(journal, SweepJournal):
        journal = SweepJournal(journal)

    outcomes: List[Optional[CampaignOutcome]] = [None] * len(specs)
    errors: Dict[int, BaseException] = {}

    if journal is not None:
        journal.create_or_open(specs, argv=argv, resume=resume)

    started = time.monotonic()
    chunk_size = max(4, workers * 4)
    executed_through = 0
    for base in range(0, len(specs), chunk_size):
        if time_budget_s is not None and \
                time.monotonic() - started >= time_budget_s:
            result.exhausted = True
            break
        chunk = specs[base:base + chunk_size]
        runner = SupervisedRunner(
            workers=workers, cache=cache,
            journal=(_JournalSlice(journal.root)
                     if journal is not None else None),
            spec_timeout_s=spec_timeout_s, max_restarts=max_restarts)
        partial = runner.run(chunk, resume=True)
        for offset, outcome in enumerate(partial.outcomes):
            if outcome is not None:
                outcomes[base + offset] = outcome
        for failure in partial.failures:
            errors[base + failure.index] = failure.error
        executed_through = base + len(chunk)
        log(f"fuzz: {executed_through}/{len(specs)} specs executed")

    result.executed = executed_through

    # -- differential verdicts ---------------------------------------------------
    for index in range(executed_through):
        spec = specs[index]
        outcome = outcomes[index]
        error = errors.get(index)
        if outcome is not None:
            pool = PathResult("pool", checksum=_outcome_checksum(outcome))
        elif isinstance(error, SpecExecutionError):
            pool = PathResult("pool", error=_error_fingerprint(error))
        else:
            # Environmental failure (WorkerCrash/SpecTimeout): not a
            # deterministic observation; check_spec runs its own.
            pool = None
        verdict = check_spec(spec, pool=pool)
        verdict.index = index
        result.verdicts.append(verdict)
        if not verdict.ok:
            log(f"fuzz: spec #{index} ({spec.deployment} "
                f"{spec.campaign}) -> {', '.join(verdict.findings)}")

    # -- shrink + corpus ---------------------------------------------------------
    if corpus_dir is not None:
        corpus = Path(corpus_dir)
        seen: set = set()
        for verdict in result.findings:
            fingerprint = verdict.findings[0]
            if fingerprint in seen:
                continue   # one minimal reproducer per distinct bug
            seen.add(fingerprint)
            minimal = verdict.spec
            if shrink_findings:
                minimal, spent = shrink(verdict.spec, fingerprint)
                log(f"fuzz: shrunk {fingerprint} in {spent} checks")
            corpus.mkdir(parents=True, exist_ok=True)
            path = corpus / repro_filename(minimal, fingerprint)
            write_repro(path, minimal, fingerprint,
                        found={"seed": seed, "index": verdict.index})
            result.corpus_paths.append(path)
    return result
