"""Runtime invariant auditor: the simulator checking itself under chaos.

The paper's conclusions rest on subtle platform semantics — exactly-once
billing on AWS, at-least-once queue delivery with deduped side effects on
Azure, deterministic orchestrator replay — and the fault-injection and
overload layers deliberately stress exactly those mechanisms.  This
module turns every campaign into a correctness test: an
:class:`InvariantAuditor` attaches to a :class:`~repro.core.testbed.Testbed`
as the kernel's dispatch monitor, accumulates evidence while the
simulation runs (queue message lifecycles via observers the
:class:`~repro.storage.queue.CloudQueue` registers itself with, request
arrivals/outcomes via the campaign executors, billing charges and
telemetry spans via the meters themselves), and checks a declarative set
of invariants at quiesce:

``clock_monotonicity``
    The kernel's clock never moves backwards across event dispatches.
``request_conservation``
    Every request that arrived ended in exactly one bucket:
    ``arrived == succeeded + throttled + shed + failed``, and non-empty
    throttle/shed buckets are backed by platform-level counters.
``billing_soundness``
    Every billed GB-s interval maps to exactly one closed container
    execution span; each platform's declared
    :class:`~repro.platforms.backend.BillingRules` (granularity,
    minimum billed duration, memory rounding) are respected; throttled
    and shed work is never compute-billed; faulted partial work bills
    only the observed runtime.
``delivery_semantics``
    Every dequeued message was enqueued; broker duplicates appear only
    under a fault plan permitting them; same-message redeliveries are
    spaced by the visibility timeout; completion dedupe actually deduped
    (no duplicate completion events in any orchestration history); no
    orphaned in-flight messages at quiesce (clean runs).
``resource_leaks``
    No leaked busy containers, pending work items or active episodes at
    quiesce (clean runs).
``replay_determinism``
    Re-replaying every finished orchestration's recorded history yields
    an identical terminal state and identical scheduling actions, twice
    (platforms without history replay — GCP Workflows — contribute no
    replays and trivially pass).

Platform-specific evidence (throttle/shed counters, leak probes,
duplicate-completion scans, replay drivers) comes from each registered
:class:`~repro.platforms.backend.PlatformBackend`, so a new platform is
audited the day it registers.

Violations raise a typed :class:`InvariantViolation` carrying the
evidence trail (deterministic event ordinals, span indices, RNG stream
names), so a failure is reproducible from ``(seed, spec)`` alone and the
verdicts are bit-identical across the serial runner,
:class:`~repro.core.parallel.ParallelRunner` workers and cache replay.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.platforms.backend import get_backend
from repro.platforms.base import round_up
from repro.telemetry import SpanKind

#: Default for specs that leave ``CampaignSpec.audit`` at ``None``.
#: The test suite flips this on via an autouse conftest fixture, so every
#: campaign any test runs is self-checking; the CLI leaves it off unless
#: ``--audit`` (or ``repro audit``) is used.
DEFAULT_AUDIT = False

#: When True (the default), campaign executors raise
#: :class:`InvariantViolation` on a failed audit; ``repro audit`` clears
#: it to collect per-invariant verdicts across a whole sweep instead.
RAISE_ON_VIOLATION = True

#: Stable invariant names, in report order.
INVARIANTS = ("clock_monotonicity", "request_conservation",
              "billing_soundness", "delivery_semantics",
              "resource_leaks", "replay_determinism")

#: Outcome buckets (mirrors :func:`repro.core.overload.classify_error`
#: plus the success path).
BUCKETS = ("succeeded", "throttled", "shed", "failed")

_EPS = 1e-9


def enabled_for(spec_audit: Optional[bool]) -> bool:
    """Resolve a spec's tri-state ``audit`` field against the default."""
    return DEFAULT_AUDIT if spec_audit is None else bool(spec_audit)


@contextmanager
def collect_violations():
    """Within this context, failed audits report instead of raising."""
    global RAISE_ON_VIOLATION
    previous = RAISE_ON_VIOLATION
    RAISE_ON_VIOLATION = False
    try:
        yield
    finally:
        RAISE_ON_VIOLATION = previous


@dataclass(frozen=True)
class CheckResult:
    """One invariant's verdict for one audited run."""

    invariant: str
    passed: bool
    detail: str
    evidence: Tuple[str, ...] = ()


@dataclass(frozen=True)
class AuditReport:
    """Every invariant verdict for one audited testbed run.

    Built exclusively from deterministic quantities (dispatch counts,
    per-queue message ordinals, span list indices, RNG stream names), so
    two runs of the same ``(seed, spec)`` — in any process — produce
    equal reports.
    """

    checks: Tuple[CheckResult, ...]
    dispatches: int
    arrivals: int
    outcomes: Tuple[Tuple[str, int], ...]

    @property
    def violations(self) -> Tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)

    @property
    def passed(self) -> bool:
        return not self.violations

    def verdicts(self) -> List[Tuple[str, bool, str]]:
        """``(invariant, passed, detail)`` rows, in stable order."""
        return [(check.invariant, check.passed, check.detail)
                for check in self.checks]

    def raise_if_violations(self, spec: Optional[Any] = None) -> None:
        """Raise :class:`InvariantViolation` if any invariant failed.

        When the failing :class:`~repro.core.parallel.CampaignSpec` is
        passed, the violation embeds its hash and an inline repro hint,
        so the failure is one command away from reproduction wherever
        it surfaces (worker process, journal, CI log).
        """
        broken = self.violations
        if broken:
            spec_hash = repro_hint = None
            if spec is not None:
                spec_hash = spec.spec_hash()
                repro_hint = spec_repro_hint(spec)
            raise InvariantViolation(broken, self, spec_hash=spec_hash,
                                     repro_hint=repro_hint)


def spec_repro_hint(spec: Any) -> str:
    """A ready-to-paste command reconstructing ``spec``.

    The inline document is the spec's canonical JSON — exactly what
    ``repro fuzz shrink -`` reads from stdin and
    :func:`repro.core.persistence.spec_from_dict` validates — so any
    failure that carries this hint reproduces without the original
    caller's context.
    """
    blob = json.dumps(spec.canonical(), sort_keys=True, default=repr)
    return (f"echo '{blob}' | python -m repro fuzz shrink -")


class InvariantViolation(AssertionError):
    """A runtime invariant failed; carries the full evidence trail.

    Subclasses :class:`AssertionError` so test harnesses treat it as a
    failed assertion.  Raised in a worker process, it reaches the
    parent as a :class:`~repro.core.parallel.SpecExecutionError` whose
    message carries the violation text verbatim.
    """

    def __init__(self, violations: Tuple[CheckResult, ...],
                 report: Optional[AuditReport] = None,
                 spec_hash: Optional[str] = None,
                 repro_hint: Optional[str] = None):
        self.violations = tuple(violations)
        self.report = report
        self.spec_hash = spec_hash
        self.repro_hint = repro_hint
        lines = []
        for check in self.violations:
            lines.append(f"[{check.invariant}] {check.detail}")
            lines.extend(f"  evidence: {item}" for item in check.evidence)
        if spec_hash:
            lines.append(f"  spec: {spec_hash[:12]}")
        if repro_hint:
            lines.append(f"  repro: {repro_hint}")
        super().__init__("invariant violation\n" + "\n".join(lines))

    def __reduce__(self):
        return (InvariantViolation,
                (self.violations, self.report, self.spec_hash,
                 self.repro_hint))


def merge_reports(reports) -> Dict[str, Tuple[int, int]]:
    """Aggregate reports into ``{invariant: (passes, violations)}``.

    The merged summary the CLI renders after a sweep; reports that are
    ``None`` (un-audited or cache entries predating the auditor) are
    skipped.
    """
    merged: Dict[str, List[int]] = {name: [0, 0] for name in INVARIANTS}
    for report in reports:
        if report is None:
            continue
        for check in report.checks:
            bucket = merged.setdefault(check.invariant, [0, 0])
            bucket[0 if check.passed else 1] += 1
    return {name: (passes, fails)
            for name, (passes, fails) in merged.items()}


class _QueueRecord:
    """Observed lifecycle of one :class:`CloudQueue`'s messages.

    The queue's global message-id counter is process-history-dependent,
    so the record assigns its own per-queue ordinals — deterministic
    evidence for the report.
    """

    __slots__ = ("label", "queue", "next_ordinal", "enqueues", "dequeues",
                 "duplicates", "drops")

    def __init__(self, label: str, queue: Any):
        self.label = label
        self.queue = queue
        self.next_ordinal = 0
        #: ordinal -> enqueue time
        self.enqueues: Dict[int, float] = {}
        #: ordinal -> dequeue times, in order
        self.dequeues: Dict[int, List[float]] = {}
        #: ordinals enqueued as broker duplicates
        self.duplicates: List[int] = []
        #: ordinals the broker dropped (partition windows)
        self.drops: List[int] = []

    def note_enqueue(self, message: Any, duplicate: bool) -> None:
        ordinal = self.next_ordinal
        self.next_ordinal = ordinal + 1
        message._audit_ordinal = ordinal
        self.enqueues[ordinal] = self.queue.env.now
        if duplicate:
            self.duplicates.append(ordinal)

    def note_dequeue(self, message: Any) -> None:
        ordinal = getattr(message, "_audit_ordinal", None)
        self.dequeues.setdefault(ordinal, []).append(self.queue.env.now)

    def note_delete(self, message: Any) -> None:
        # Deletion evidence is implied by quiesce-time queue contents;
        # nothing to record, but the hook stays for symmetry/extension.
        pass

    def note_drop(self, message: Any) -> None:
        ordinal = getattr(message, "_audit_ordinal", None)
        if ordinal is not None:
            self.drops.append(ordinal)


class InvariantAuditor:
    """Accumulates run evidence and checks the invariants at quiesce.

    Install with ``Testbed(..., audit=True)``: the testbed makes the
    auditor the kernel's dispatch monitor *before* building the platform
    stacks, so every :class:`CloudQueue` — including ones deployments
    create later — registers itself, then hands the auditor the stack
    references via :meth:`attach`.
    """

    def __init__(self):
        self.testbed: Any = None
        self.dispatches = 0
        self._last_now = float("-inf")
        self._clock_regressions: List[str] = []
        self._queues: List[_QueueRecord] = []
        self.arrivals = 0
        self.outcomes: Dict[str, int] = {name: 0 for name in BUCKETS}

    # -- kernel monitor (the hot path: keep trivial) -------------------------

    def __call__(self, now: float) -> None:
        self.dispatches += 1
        if now < self._last_now:
            if len(self._clock_regressions) < 8:
                self._clock_regressions.append(
                    f"dispatch #{self.dispatches}: clock moved "
                    f"{self._last_now!r} -> {now!r}")
        else:
            self._last_now = now

    # -- observer registration ------------------------------------------------

    def register_queue(self, queue: Any) -> _QueueRecord:
        """Called by :class:`CloudQueue.__init__`; returns its observer."""
        record = _QueueRecord(
            f"{queue.name}#{len(self._queues)}", queue)
        self._queues.append(record)
        return record

    def attach(self, testbed: Any) -> None:
        """Give the auditor its quiesce-time view of the platform stacks."""
        self.testbed = testbed

    # -- campaign executor hooks ----------------------------------------------

    def note_arrival(self) -> None:
        self.arrivals += 1

    def note_outcome(self, bucket: str) -> None:
        if bucket not in self.outcomes:
            raise ValueError(f"unknown outcome bucket {bucket!r}; "
                             f"choose from {BUCKETS}")
        self.outcomes[bucket] += 1

    # -- finalization ----------------------------------------------------------

    def finalize(self) -> AuditReport:
        """Check every invariant against the quiesced testbed.

        Never raises on a violation — callers decide via
        :meth:`AuditReport.raise_if_violations` (the executors consult
        :data:`RAISE_ON_VIOLATION`).
        """
        checks = (
            self._check_clock(),
            self._check_conservation(),
            self._check_billing(),
            self._check_delivery(),
            self._check_leaks(),
            self._check_replay(),
        )
        return AuditReport(
            checks=checks,
            dispatches=self.dispatches,
            arrivals=self.arrivals,
            outcomes=tuple(sorted(self.outcomes.items())))

    # -- invariants ------------------------------------------------------------

    def _clean_quiesce(self) -> bool:
        """No faults injected and no non-success outcomes: strict checks
        (empty queues, zero busy containers) apply only then — faulted or
        overloaded runs legitimately abandon in-flight work."""
        testbed = self.testbed
        return (testbed is not None and testbed.faults is None
                and self.outcomes["throttled"] == 0
                and self.outcomes["shed"] == 0
                and self.outcomes["failed"] == 0)

    def _check_clock(self) -> CheckResult:
        if self._clock_regressions:
            return CheckResult(
                "clock_monotonicity", False,
                f"clock moved backwards "
                f"{len(self._clock_regressions)} time(s) over "
                f"{self.dispatches} dispatches",
                tuple(self._clock_regressions))
        return CheckResult(
            "clock_monotonicity", True,
            f"{self.dispatches} dispatches, clock monotone")

    def _check_conservation(self) -> CheckResult:
        total = sum(self.outcomes.values())
        evidence: List[str] = []
        if self.arrivals != total:
            buckets = ", ".join(f"{name}={count}" for name, count
                                in sorted(self.outcomes.items()))
            return CheckResult(
                "request_conservation", False,
                f"arrived {self.arrivals} != bucketed {total}",
                (f"buckets: {buckets}",))
        testbed = self.testbed
        if testbed is not None:
            throttle_events = sum(
                get_backend(name).throttle_count(testbed)
                for name in testbed.platform_names)
            shed_events = sum(
                get_backend(name).shed_count(testbed)
                for name in testbed.platform_names)
            if self.outcomes["throttled"] > 0 and throttle_events == 0:
                evidence.append(
                    f"{self.outcomes['throttled']} requests bucketed "
                    "throttled but no platform 429 counter moved")
            if self.outcomes["shed"] > 0 and shed_events == 0:
                evidence.append(
                    f"{self.outcomes['shed']} requests bucketed shed "
                    "but no platform shed counter moved")
        if evidence:
            return CheckResult(
                "request_conservation", False,
                "outcome buckets inconsistent with platform counters",
                tuple(evidence))
        buckets = ", ".join(f"{name}={count}" for name, count
                            in sorted(self.outcomes.items()))
        return CheckResult(
            "request_conservation", True,
            f"arrived {self.arrivals} == {buckets}" if self.arrivals
            else "no tracked arrivals")

    def _check_billing(self) -> CheckResult:
        testbed = self.testbed
        if testbed is None:
            return CheckResult("billing_soundness", True,
                               "no testbed attached")
        evidence: List[str] = []
        total_pairs = 0
        for platform in testbed.platform_names:
            backend = get_backend(platform)
            stack = testbed.stack(platform)
            rules = backend.billing_rules(testbed.calibration(platform))
            spans = [(index, span)
                     for index, span in enumerate(stack.telemetry.spans)
                     if span.kind == SpanKind.EXECUTION and span.closed]
            charges = list(enumerate(stack.billing.compute))
            if len(spans) != len(charges):
                evidence.append(
                    f"{platform}: {len(charges)} compute charges vs "
                    f"{len(spans)} closed execution spans")
                continue
            total_pairs += len(charges)
            spans.sort(key=lambda pair: (pair[1].end, pair[1].name,
                                         pair[1].duration))
            charges.sort(key=lambda pair: (pair[1].time,
                                           pair[1].function_name,
                                           pair[1].raw_duration))
            for (span_index, span), (charge_index, charge) in zip(
                    spans, charges):
                where = (f"{platform} charge[{charge_index}] "
                         f"{charge.function_name!r} ~ span[{span_index}]")
                if charge.function_name != span.name:
                    evidence.append(
                        f"{where}: billed function != span {span.name!r}")
                    continue
                if abs(charge.time - span.end) > _EPS:
                    evidence.append(
                        f"{where}: charged at {charge.time!r} but span "
                        f"ended at {span.end!r}")
                if abs(charge.raw_duration - span.duration) > _EPS:
                    evidence.append(
                        f"{where}: raw {charge.raw_duration!r}s != span "
                        f"duration {span.duration!r}s — billing not "
                        "bounded by observed runtime")
                expected = round_up(max(charge.raw_duration, 1e-9),
                                    rules.granularity_s)
                if rules.min_billed_s:
                    expected = max(expected, rules.min_billed_s)
                span_memory = span.attributes.get("memory_mb")
                if span_memory is not None:
                    if rules.memory_rounding_mb:
                        rounded = int(round_up(span_memory,
                                               rules.memory_rounding_mb))
                        if charge.memory_mb != rounded:
                            evidence.append(
                                f"{where}: billed memory "
                                f"{charge.memory_mb} MB != "
                                f"{rules.memory_rounding_mb} MB-rounded "
                                f"span memory {span_memory} MB")
                    elif charge.memory_mb != span_memory:
                        evidence.append(
                            f"{where}: billed memory {charge.memory_mb} "
                            f"MB != configured {span_memory} MB")
                if abs(charge.billed_duration - expected) > _EPS:
                    evidence.append(
                        f"{where}: billed {charge.billed_duration!r}s, "
                        f"rounding rules say {expected!r}s")
                gb_s = charge.billed_duration * (charge.memory_mb / 1024.0)
                if abs(charge.gb_s - gb_s) > _EPS:
                    evidence.append(
                        f"{where}: gb_s {charge.gb_s!r} != "
                        f"billed × memory = {gb_s!r}")
            # Request-level soundness: throttles are rejected before the
            # request is billed on every platform; platforms that shed
            # *accepted* work after admission (Azure) still bill the
            # request, per the backend's billing rules.
            requests = stack.billing.total_requests()
            executions = len(spans)
            # Executions still in flight when the run ends are billed
            # (they started) but their spans never closed; count them so
            # a frozen-mid-execution straggler is not a false positive.
            in_flight = sum(
                1 for span in stack.telemetry.spans
                if span.kind == SpanKind.EXECUTION and not span.closed)
            shed = (backend.shed_count(testbed)
                    if rules.bills_shed_requests else 0)
            expected_requests = executions + in_flight + shed
            if requests != expected_requests:
                evidence.append(
                    f"{platform}: {requests} billed requests != "
                    f"{expected_requests} (executions {executions}"
                    + (f" + in-flight {in_flight}" if in_flight else "")
                    + (f" + sheds {shed}" if shed else "")
                    + ") — throttled/shed work must stay unbilled")
        if evidence:
            return CheckResult(
                "billing_soundness", False,
                "billed charges diverge from execution spans",
                tuple(evidence[:16]))
        return CheckResult(
            "billing_soundness", True,
            f"{total_pairs} charges each map to exactly one execution "
            "span; rounding and request accounting consistent")

    def _check_delivery(self) -> CheckResult:
        testbed = self.testbed
        plan = (testbed.faults.plan
                if testbed is not None and testbed.faults is not None
                else None)
        evidence: List[str] = []
        total_messages = 0
        for record in self._queues:
            total_messages += record.next_ordinal
            known = record.enqueues
            for ordinal, times in sorted(record.dequeues.items()):
                if ordinal is None or ordinal not in known:
                    evidence.append(
                        f"queue {record.label}: dequeued a message never "
                        "enqueued")
                    continue
                visibility = record.queue.visibility_timeout
                for earlier, later in zip(times, times[1:]):
                    if later - earlier < visibility - _EPS:
                        evidence.append(
                            f"queue {record.label}: message #{ordinal} "
                            f"redelivered {later - earlier:.3f}s after "
                            f"its dequeue, inside the {visibility:.0f}s "
                            "visibility timeout")
            if record.duplicates and (
                    plan is None
                    or plan.queue_duplication_probability <= 0):
                evidence.append(
                    f"queue {record.label}: {len(record.duplicates)} "
                    "broker duplicates without a fault plan permitting "
                    f"them (stream faults.queue.{record.queue.name})")
            if record.drops and (
                    plan is None
                    or plan.partition_drop_probability <= 0):
                evidence.append(
                    f"queue {record.label}: {len(record.drops)} "
                    "broker-dropped message(s) without a fault plan "
                    "permitting partition drops")
            if self._clean_quiesce() and record.queue._messages:
                evidence.append(
                    f"queue {record.label}: "
                    f"{len(record.queue._messages)} orphaned message(s) "
                    "at quiesce of a clean run")
        if testbed is not None:
            for name in testbed.platform_names:
                evidence.extend(
                    get_backend(name).delivery_evidence(testbed))
        if evidence:
            return CheckResult(
                "delivery_semantics", False,
                "queue delivery diverged from at-least-once + dedupe "
                "semantics", tuple(evidence[:16]))
        return CheckResult(
            "delivery_semantics", True,
            f"{total_messages} messages across {len(self._queues)} "
            "queues delivered consistently")

    def _check_leaks(self) -> CheckResult:
        testbed = self.testbed
        if testbed is None or not self._clean_quiesce():
            return CheckResult(
                "resource_leaks", True,
                "skipped (faulted or overloaded run: abandoned "
                "in-flight work is legitimate)")
        evidence: List[str] = []
        for name in testbed.platform_names:
            evidence.extend(get_backend(name).leak_evidence(testbed))
        if evidence:
            return CheckResult(
                "resource_leaks", False,
                "resources leaked past quiesce", tuple(evidence))
        return CheckResult("resource_leaks", True,
                           "no busy containers, pending work or active "
                           "episodes at quiesce")

    def _check_replay(self) -> CheckResult:
        testbed = self.testbed
        if testbed is None:
            return CheckResult("replay_determinism", True,
                               "no testbed attached")
        evidence: List[str] = []
        replayed = 0
        for name in testbed.platform_names:
            count, platform_evidence = (
                get_backend(name).replay_check(testbed))
            replayed += count
            evidence.extend(platform_evidence)
        if evidence:
            return CheckResult(
                "replay_determinism", False,
                "history replay diverged from the recorded outcome",
                tuple(evidence[:16]))
        return CheckResult(
            "replay_determinism", True,
            f"{replayed} finished orchestration(s) replayed "
            "deterministically")
