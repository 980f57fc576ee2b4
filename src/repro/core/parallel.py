"""Parallel campaign execution: fan independent campaigns across cores.

The paper's protocol is "over one hundred iterations of each
implementation" across six variants — hours of serial simulation, yet
every campaign is an independent, deterministic discrete-event run given
``(deployment, workload, calibration, seed)``.  This module makes that
independence explicit:

* :class:`CampaignSpec` — a frozen, picklable description of one
  campaign (variant, workload, scale, calibration overrides, seed,
  iteration counts, campaign type).
* :func:`execute_spec` — the one campaign executor, a pure worker
  function: it builds every pass's fresh :class:`Testbed` from the spec
  (:func:`spec_testbed`), runs the campaign type's body and finalizes
  the audited pass's report.  Reliability and resilience bodies run
  their faulted and fault-free baseline passes on one failure-tolerant
  loop (:func:`run_pass`).  Running a spec in the parent process, a
  worker process, or from a cache file yields bit-identical results.
* :class:`ParallelRunner` — runs a list of specs on the supervised
  runner (:class:`repro.core.supervise.SupervisedRunner`, optionally
  consulting a :class:`repro.core.cache.ResultCache`) and returns the
  outcomes in spec order, equivalent to driving the serial
  :class:`ExperimentRunner` yourself, or raises the first failure.

Example
-------
>>> from repro.core.parallel import CampaignSpec
>>> spec = CampaignSpec(deployment="AWS-Lambda", scale="small",
...                     iterations=5, seed=29)
>>> spec.campaign
'latency'
>>> len(spec.spec_hash())
64
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.costs import CostReport, cost_report
from repro.core.deployments import (
    build_ml_inference_deployments,
    build_ml_training_deployments,
    build_video_deployments,
)
from repro.core.experiment import (
    CampaignResult,
    ColdStartCampaign,
    ExperimentRunner,
)
from repro.core.metrics import breakdown_from_spans
from repro.core.testbed import Testbed
from repro.platforms.backend import backend_names, get_backend
from repro.platforms.faults import FaultPlan

class SweepError(Exception):
    """Base of the typed sweep-failure taxonomy.

    Every subclass pickles cleanly (workers raise across process
    boundaries) and names the failing spec's content hash, so a log
    line identifies exactly which configuration of a thousand-spec
    sweep went wrong.  :class:`SpecExecutionError` lives here; the
    supervision-level failures (:class:`~repro.core.supervise.WorkerCrash`,
    :class:`~repro.core.supervise.SpecTimeout`) extend the taxonomy in
    :mod:`repro.core.supervise`.
    """


class SpecExecutionError(SweepError):
    """One spec's campaign raised inside a worker.

    Deterministic by construction — the simulation is a pure function
    of the spec — so supervisors report these instead of retrying them.
    """

    def __init__(self, spec: "CampaignSpec", message: str,
                 traceback_text: str = "",
                 cause: Optional[BaseException] = None):
        super().__init__(spec, message, traceback_text)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.message = message
        self.traceback_text = traceback_text
        #: the original exception when the spec ran in this process
        #: (not preserved across pickling)
        self.cause = cause

    @property
    def repro_hint(self) -> str:
        """Ready-to-paste command reconstructing the failing spec."""
        from repro.core.audit import spec_repro_hint
        return spec_repro_hint(self.spec)

    def __str__(self) -> str:
        return (f"spec {self.spec_hash[:12]} ({self.spec.deployment} "
                f"{self.spec.campaign}) failed: {self.message}\n"
                f"  repro: {self.repro_hint}")

    def __reduce__(self):
        # Rebuild from args alone: ``cause`` is whatever the campaign
        # raised and need not be picklable, so it must not ride along in
        # ``__dict__`` when this failure crosses a process boundary.
        return (type(self),
                (self.spec, self.message, self.traceback_text))


WORKLOADS = ("ml-training", "ml-inference", "video")
CAMPAIGN_TYPES = ("latency", "coldstart", "fanout", "reliability",
                  "overload", "resilience")
#: arrival models an ``overload`` campaign may name (mirrors
#: :data:`repro.core.overload.ARRIVAL_KINDS`, kept literal to avoid an
#: import cycle)
ARRIVAL_KINDS = ("poisson", "uniform", "bursty")
#: deployment variants each workload can build (mirrors the
#: ``build_*_deployments`` maps, kept literal so spec validation needs
#: no workload construction)
WORKLOAD_VARIANTS = {
    "ml-training": ("AWS-Lambda", "AWS-Step", "Az-Func", "Az-Queue",
                    "Az-Dorch", "Az-Dent", "GCP-Func", "GCP-Flows"),
    "ml-inference": ("AWS-Step", "Az-Dorch", "Az-Dent", "GCP-Flows"),
    "video": ("AWS-Lambda", "AWS-Step", "Az-Func", "Az-Dorch",
              "GCP-Flows"),
}
#: the registered backend each deployment variant runs on
VARIANT_PLATFORMS = {
    "AWS-Lambda": "aws", "AWS-Step": "aws",
    "Az-Func": "azure", "Az-Queue": "azure",
    "Az-Dorch": "azure", "Az-Dent": "azure",
    "GCP-Func": "gcp", "GCP-Flows": "gcp",
}


def _frozen_items(value: Any) -> Tuple[Tuple[str, Any], ...]:
    """Dicts/pair-lists become sorted key/value tuples so specs stay
    hashable and hash independently of insertion order."""
    pairs = value.items() if isinstance(value, dict) else value
    return tuple(sorted((tuple(pair) for pair in pairs),
                        key=lambda pair: pair[0]))


def _deep_freeze(value: Any) -> Any:
    """Recursively turn lists/tuples into tuples so nested structures
    (outage windows, ...) stay hashable inside a frozen spec."""
    if isinstance(value, (list, tuple)):
        return tuple(_deep_freeze(item) for item in value)
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to replay one campaign in any process.

    ``calibration_overrides`` and ``invoke_kwargs`` accept plain dicts
    for convenience; they are normalized to sorted tuples so the spec
    stays hashable and picklable.  Override keys use the
    ``"<platform>.field"`` convention of
    :class:`repro.core.sweep.GridSweep` (``"aws.field"``,
    ``"azure.field"``, ``"gcp.field"``, ...).
    """

    deployment: str
    workload: str = "ml-training"
    scale: str = "small"              # ML dataset scale
    fanout: int = 20                  # video workload worker count
    seed: int = 0                     # testbed RNG seed
    workload_seed: int = 0            # dataset/model generation seed
    campaign: str = "latency"
    iterations: int = 10              # latency: measured runs
    warmup: int = 1                   # latency: unmeasured lead-in runs
    think_time_s: float = 30.0
    settle_time_s: float = 5.0
    interval_s: float = 3600.0        # coldstart: request spacing
    days: float = 4.0                 # coldstart: campaign length
    batch: int = 0                    # fanout: concurrent invocations
    idle_window_s: float = 0.0        # post-campaign idle metering window
    arrival: str = "poisson"          # overload: arrival-process kind
    arrival_rate_per_s: float = 0.0   # overload: offered open-loop rate
    horizon_s: float = 0.0            # overload: arrival window length
    calibration_overrides: Tuple[Tuple[str, Any], ...] = ()
    invoke_kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: sorted ``FaultPlan.to_items()`` pairs; empty = fault-free
    fault_plan: Tuple[Tuple[str, Any], ...] = ()
    #: sorted ``MitigationPolicy.to_items()`` pairs (resilience
    #: campaigns); empty = the default policy (hard timeout only)
    mitigation: Tuple[Tuple[str, Any], ...] = ()
    #: resilience: SLO targets the summary renders verdicts against
    slo_availability: float = 0.999
    slo_p99_s: float = 0.0            # 0 = no latency SLO
    #: run the invariant auditor?  None defers to
    #: :data:`repro.core.audit.DEFAULT_AUDIT` at execution time.
    audit: Optional[bool] = None

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"workload must be one of {WORKLOADS}")
        if self.deployment not in WORKLOAD_VARIANTS[self.workload]:
            raise ValueError(
                f"deployment {self.deployment!r} is not a "
                f"{self.workload} variant; choose from "
                f"{WORKLOAD_VARIANTS[self.workload]}")
        if self.campaign not in CAMPAIGN_TYPES:
            raise ValueError(f"campaign must be one of {CAMPAIGN_TYPES}")
        if (self.campaign in ("latency", "reliability", "resilience")
                and self.iterations <= 0):
            raise ValueError("iterations must be positive")
        if not 0.0 < self.slo_availability <= 1.0:
            raise ValueError("slo_availability must lie in (0, 1]")
        if not self.slo_p99_s >= 0:
            raise ValueError("slo_p99_s must be non-negative")
        if self.campaign == "overload":
            if self.arrival not in ARRIVAL_KINDS:
                raise ValueError(
                    f"arrival must be one of {ARRIVAL_KINDS}")
            if not self.arrival_rate_per_s > 0:
                raise ValueError(
                    "overload campaigns need arrival_rate_per_s > 0")
            if not self.horizon_s > 0:
                raise ValueError("overload campaigns need horizon_s > 0")
        object.__setattr__(self, "calibration_overrides",
                           _frozen_items(self.calibration_overrides))
        object.__setattr__(self, "invoke_kwargs",
                           _frozen_items(self.invoke_kwargs))
        if self.fault_plan:
            normalized = tuple(sorted(
                (str(name), _deep_freeze(value))
                for name, value in self.fault_plan))
            object.__setattr__(self, "fault_plan", normalized)
            FaultPlan.from_items(normalized)   # validate eagerly
        if self.mitigation:
            from repro.core.mitigation import MitigationPolicy
            normalized = tuple(sorted(
                (str(name), _deep_freeze(value))
                for name, value in self.mitigation))
            object.__setattr__(self, "mitigation", normalized)
            MitigationPolicy.from_items(normalized)   # validate eagerly
        known_platforms = backend_names()
        for name, _ in self.calibration_overrides:
            platform, _, parameter = str(name).partition(".")
            if platform not in known_platforms or not parameter:
                raise ValueError(
                    f"override keys look like '<platform>.field' with a "
                    f"registered platform {known_platforms}, got {name!r}")
        if self.audit:
            for name, value in self.calibration_overrides:
                if str(name).endswith(".telemetry_spans") and not value:
                    raise ValueError(
                        f"audit=True needs telemetry spans: override "
                        f"{name!r}={value!r} would starve the auditor "
                        f"of the execution-span evidence it checks "
                        f"billing against (drop the override or set "
                        f"audit=False)")

    # -- identity ---------------------------------------------------------------

    def canonical(self) -> Dict[str, Any]:
        """A stable, JSON-ready dict of every field (for hashing)."""
        payload = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = [list(item) for item in value]
            payload[spec_field.name] = value
        return payload

    def spec_hash(self) -> str:
        """Content hash of the spec itself (not the calibration)."""
        blob = json.dumps(self.canonical(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()

    def calibration_hash(self) -> str:
        """Content hash of the *effective* calibrations (defaults plus
        this spec's overrides), so editing a default constant in any
        platform's calibration module invalidates cached results."""
        blob = repr(sorted((name, asdict(calibration))
                           for name, calibration
                           in self.calibrations().items()))
        return hashlib.sha256(blob.encode()).hexdigest()

    # -- materialization -------------------------------------------------------

    def fault_plan_obj(self) -> Optional[FaultPlan]:
        """The spec's :class:`FaultPlan`, or ``None`` when fault-free."""
        if not self.fault_plan:
            return None
        return FaultPlan.from_items(self.fault_plan)

    def mitigation_obj(self):
        """The spec's :class:`~repro.core.mitigation.MitigationPolicy`
        (the hard-timeout-only default when no pairs were given)."""
        from repro.core.mitigation import MitigationPolicy
        return MitigationPolicy.from_items(self.mitigation)

    def calibrations(self) -> Dict[str, Any]:
        """Fresh default calibrations (one per registered platform) with
        this spec's overrides applied, keyed by backend name."""
        calibrations = {name: get_backend(name).default_calibration()
                        for name in backend_names()}
        for name, value in self.calibration_overrides:
            platform, _, parameter = str(name).partition(".")
            target = calibrations[platform]
            if not hasattr(target, parameter):
                raise AttributeError(
                    f"{type(target).__name__} has no field {parameter!r}")
            setattr(target, parameter, value)
        # setattr bypasses __post_init__, so re-validate the results.
        for calibration in calibrations.values():
            calibration.validate()
        return calibrations

    def build_deployment(self, testbed: Testbed):
        """Build this spec's deployment variant on ``testbed``."""
        if self.workload == "ml-training":
            variants = build_ml_training_deployments(
                testbed, self.scale, seed=self.workload_seed)
        elif self.workload == "ml-inference":
            variants = build_ml_inference_deployments(
                testbed, self.scale, seed=self.workload_seed)
        else:
            variants = build_video_deployments(
                testbed, n_workers=self.fanout, seed=self.workload_seed)
        if self.deployment not in variants:
            raise KeyError(
                f"workload {self.workload!r} has no variant "
                f"{self.deployment!r}; choose from {sorted(variants)}")
        return variants[self.deployment]


@dataclass
class CampaignOutcome:
    """One executed spec: the campaign, its cost report and idle meter."""

    spec: CampaignSpec
    campaign: CampaignResult
    cost: CostReport
    #: transactions metered during ``spec.idle_window_s`` of idle time
    idle_transactions: int = 0
    #: reliability campaigns attach their summary report here
    reliability: Optional[Any] = None
    #: overload campaigns attach their summary report here
    overload: Optional[Any] = None
    #: resilience campaigns attach their summary report here
    resilience: Optional[Any] = None
    #: :class:`repro.core.audit.AuditReport` when the spec was audited
    audit: Optional[Any] = None
    #: True when this outcome was served from a result cache
    cached: bool = field(default=False, compare=False)
    #: ``(cache key, document text)`` this outcome was read from or
    #: encoded into (:class:`repro.core.cache.ResultCache`), so every
    #: further store copies the text instead of encoding it again
    document: Optional[Tuple[str, str]] = field(default=None, compare=False,
                                                repr=False)


def spec_testbed(spec: CampaignSpec, fault_plan: Optional[FaultPlan],
                 audit: bool) -> Tuple[Testbed, Any]:
    """A fresh testbed for one pass of ``spec`` and the spec's
    deployment, deployed on it.  The testbed counts its own run ids."""
    testbed = Testbed(seed=spec.seed, calibrations=spec.calibrations(),
                      fault_plan=fault_plan, audit=audit)
    deployment = spec.build_deployment(testbed)
    deployment.deploy()
    return testbed, deployment


@dataclass
class PassResult:
    """One failure-tolerant closed-loop pass (:func:`run_pass`)."""

    testbed: Testbed
    campaign: CampaignResult
    cost: CostReport
    #: measured iterations whose run raised
    failures: int
    #: the policy's :class:`~repro.core.mitigation.MitigationEngine`
    engine: Optional[Any]
    #: completion time of every successful run, warmup included
    success_times: List[float]


def run_pass(spec: CampaignSpec, fault_plan: Optional[FaultPlan],
             audit: bool = False, policy: Any = None) -> PassResult:
    """One closed-loop pass of ``spec``, tolerant of failed runs.

    Mirrors :meth:`ExperimentRunner.run_campaign` exactly (same
    settle/think cadence, same breakdown windows) except that a run
    raising, a fault the platform could not absorb, is recorded as a
    failure instead of aborting the campaign.  With a mitigation
    ``policy`` every invoke goes through one persistent engine, whose
    breaker state and latency estimates carry across iterations like a
    real client library's; without one the deployment is invoked
    directly.
    """
    from repro.core.overload import classify_error

    testbed, deployment = spec_testbed(spec, fault_plan, audit)
    auditor = testbed.auditor
    telemetry = deployment.stack.telemetry
    campaign = CampaignResult(deployment=deployment.name)
    kwargs = dict(spec.invoke_kwargs)
    engine = None
    if policy is not None:
        from repro.core.mitigation import MitigationEngine
        engine = MitigationEngine(
            policy=policy, env=testbed.env, streams=testbed.streams,
            label=f"{spec.campaign}.{spec.deployment}",
            gb_s_probe=lambda: sum(stack.billing.total_gb_s()
                                   for stack in testbed.stacks.values()))
    failures = 0
    success_times: List[float] = []

    def invoke():
        return deployment.invoke(**kwargs)

    for index in range(spec.warmup + spec.iterations):
        window_start = testbed.now
        span_cursor = len(telemetry.spans)
        run = None
        if auditor is not None:
            auditor.note_arrival()
        try:
            run = testbed.run(invoke() if engine is None
                              else engine.call(invoke))
            success_times.append(testbed.now)
            if auditor is not None:
                auditor.note_outcome("succeeded")
        except Exception as error:  # noqa: BLE001 - the failure IS the measurement
            if auditor is not None:
                auditor.note_outcome(classify_error(error))
            if index >= spec.warmup:
                failures += 1
        testbed.advance(spec.settle_time_s)
        if index >= spec.warmup and run is not None:
            campaign.runs.append(run)
            campaign.breakdowns.append(breakdown_from_spans(
                telemetry, since=window_start, until=testbed.now,
                start_hint=span_cursor))
        testbed.advance(spec.think_time_s)

    cost = cost_report(deployment, per_runs=spec.warmup + spec.iterations)
    return PassResult(testbed=testbed, campaign=campaign, cost=cost,
                      failures=failures, engine=engine,
                      success_times=success_times)


def baseline_ratio(value: float, baseline: float) -> float:
    """``value`` over its fault-free baseline; 1.0 when both are zero."""
    if baseline <= 0:
        return 1.0 if value <= 0 else float("inf")
    return value / baseline


def _paper_campaign(spec: CampaignSpec,
                    audit: bool) -> Tuple[Testbed, CampaignOutcome]:
    """The paper's protocols: latency, cold-start and fan-out campaigns."""
    testbed, deployment = spec_testbed(spec, spec.fault_plan_obj(), audit)
    kwargs = dict(spec.invoke_kwargs) or None

    if spec.campaign == "latency":
        runner = ExperimentRunner(think_time_s=spec.think_time_s,
                                  settle_time_s=spec.settle_time_s)
        campaign = runner.run_campaign(deployment, spec.iterations,
                                       warmup=spec.warmup,
                                       invoke_kwargs=kwargs)
        per_runs = spec.warmup + spec.iterations
    elif spec.campaign == "coldstart":
        protocol = ColdStartCampaign(interval_s=spec.interval_s,
                                     days=spec.days)
        campaign = protocol.run(deployment)
        per_runs = protocol.request_count
    else:  # fanout
        runner = ExperimentRunner(think_time_s=spec.think_time_s,
                                  settle_time_s=spec.settle_time_s)
        batch = spec.batch or spec.fanout
        runs = runner.run_parallel_batch(deployment, batch,
                                         invoke_kwargs=kwargs)
        campaign = CampaignResult(deployment=deployment.name, runs=runs)
        per_runs = batch

    cost = cost_report(deployment, per_runs=per_runs)
    idle_transactions = 0
    if spec.idle_window_s > 0:
        before = len(deployment.stack.meter)
        testbed.advance(spec.idle_window_s)
        idle_transactions = len(deployment.stack.meter) - before
    return testbed, CampaignOutcome(spec=spec, campaign=campaign, cost=cost,
                                    idle_transactions=idle_transactions)


def execute_spec(spec: CampaignSpec) -> CampaignOutcome:
    """Run one campaign spec on fresh testbeds (the pure worker).

    Deterministic: every pass's testbed (:func:`spec_testbed`), its RNG
    streams, its run ids and the workload are all derived from the spec
    alone, so the same spec produces bit-identical results in any
    process.  Each campaign type's body returns its outcome with the
    testbed of its audited pass, finalized and then closed here.
    """
    from repro.core import audit as audit_mod
    from repro.core.overload import overload_campaign
    from repro.core.reliability import reliability_campaign
    from repro.core.resilience import resilience_campaign

    body = {"reliability": reliability_campaign,
            "overload": overload_campaign,
            "resilience": resilience_campaign,
            }.get(spec.campaign, _paper_campaign)
    testbed, outcome = body(spec, audit_mod.enabled_for(spec.audit))
    try:
        if testbed.auditor is not None:
            outcome.audit = testbed.auditor.finalize()
            if audit_mod.RAISE_ON_VIOLATION:
                outcome.audit.raise_if_violations(spec=spec)
    finally:
        testbed.close()
    return outcome


class ParallelRunner:
    """The strict contract over :class:`~repro.core.supervise.SupervisedRunner`.

    ``run`` returns :class:`CampaignOutcome` objects in spec order,
    bit-identical to running each spec serially through
    :class:`ExperimentRunner` (asserted by ``tests/core/test_parallel.py``).
    If a spec fails, it raises the first failure, once every healthy
    spec has completed (and, with a ``cache``, been cached), so a re-run
    after the fix only pays for the broken ones.  ``workers`` defaults
    to the machine's CPU count.
    """

    def __init__(self, workers: Optional[int] = None, cache: Any = None):
        # supervise imports this module, so its runner is imported late
        from repro.core.supervise import SupervisedRunner
        self.supervisor = SupervisedRunner(workers=workers, cache=cache)

    def run(self, specs: Sequence[CampaignSpec]) -> List[CampaignOutcome]:
        return self.supervisor.run(specs).raise_if_failed()

    def run_campaigns(self,
                      specs: Sequence[CampaignSpec]) -> List[CampaignResult]:
        """Like :meth:`run` but returns just the campaign results."""
        return [outcome.campaign for outcome in self.run(specs)]


def ml_training_specs(variants: Sequence[str], scale: str, iterations: int,
                      seed: int = 0, warmup: int = 1,
                      **spec_kwargs: Any) -> List[CampaignSpec]:
    """Latency-campaign specs for a list of ML-training variants."""
    return [CampaignSpec(deployment=name, workload="ml-training",
                         scale=scale, iterations=iterations, seed=seed,
                         warmup=warmup, **spec_kwargs)
            for name in variants]
