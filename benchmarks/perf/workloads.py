"""Pinned spec lists for the four laboratory-benchmark workloads.

Every list is a pure function of the benchmark seed ``S`` (and of
``quick``, which shrinks each workload to a handful of specs for the
smoke test).  Spec seeds come from ``S`` alone, never from the fuzzer.
The specs are the ones the CLI commands build, so each workload times an
entry point a user runs:

* ``paper-figures`` (35 specs): ``repro latency`` (8 variants) and
  ``repro inference`` (4 variants) at 100 iterations, ``repro video``
  (3 variants x 6 fan-outs) and ``repro coldstart`` (5 variants, 4 days
  hourly).  The only workload with real numpy compute in the timed loop
  (face detection) and with multi-day idle task hubs.
* ``overload-sweep`` (24 specs): ``repro overload`` default overrides at
  0.5/1/2 req/s over 120 s on all 8 ML-training variants, unaudited.
  The busiest path through the kernel, queues and telemetry; bounded
  queues switch idle-poll elision off.
* ``audited-chaos`` (29 specs): ``repro audit``'s three fault plans on
  5 variants and ``repro resilience`` crash and gray outages on 3
  variants, 20 iterations each, plus the audit's tight overload at
  0.5/2 req/s over 200 s on 4 variants, all audited.  The only workload
  that runs the auditor, the fault injector and the mitigation engine.
* ``journaled-sweep`` (154 specs): 11 small specs per seed for seeds
  S..S+13, run through ``SupervisedRunner`` with a result cache and a
  sweep journal, so process launch, the journal, the cache and the codec
  dominate instead of simulation.

Each list is sized so that one pass takes about five seconds on a 2-vCPU
machine: a run repeats the pass three times and keeps each spec's
fastest time, which filters host noise that a single longer pass cannot.

Both overload components use ``repro overload --arrival uniform``
arrivals, not the CLI's Poisson default.  A Poisson arrival count varies
with the seed, and the history-table scans make the busiest Azure specs
cost more than linearly in it, so ``wall_s`` spread across seeds wider
than the benchmark's bounds.  Uniform arrivals past saturation drive the
same code paths (429s, bounded queues, shedding, durable history growth)
with a fixed offered load.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.mitigation import MitigationPolicy
from repro.core.parallel import CampaignSpec
from repro.platforms.faults import FaultPlan

ML_VARIANTS = ("AWS-Lambda", "AWS-Step", "Az-Func", "Az-Queue", "Az-Dorch",
               "Az-Dent", "GCP-Func", "GCP-Flows")
INFERENCE_VARIANTS = ("AWS-Step", "Az-Dorch", "Az-Dent", "GCP-Flows")
VIDEO_VARIANTS = ("AWS-Step", "Az-Dorch", "GCP-Flows")
VIDEO_FANOUTS = (1, 5, 10, 20, 40, 80)
COLDSTART_VARIANTS = ("Az-Queue", "AWS-Step", "Az-Dorch", "Az-Dent",
                      "GCP-Flows")
CHAOS_VARIANTS = ("AWS-Step", "Az-Queue", "Az-Dorch", "Az-Dent", "GCP-Flows")
RESILIENCE_VARIANTS = ("AWS-Step", "Az-Dorch", "GCP-Flows")
AUDIT_OVERLOAD_VARIANTS = ("AWS-Step", "Az-Func", "Az-Dorch", "GCP-Func")
RELIABILITY_VARIANTS = ("AWS-Step", "Az-Dorch", "GCP-Flows")

#: ``repro overload``'s default calibration overrides
OVERLOAD_OVERRIDES = {
    "aws.concurrency_limit": 24, "aws.burst_concurrency": 24,
    "aws.refill_per_s": 4.0, "azure.max_instances": 4,
    "azure.queue_depth_limit": 48, "azure.shed_deadline_s": 45.0,
    "gcp.max_instances": 4,
}
#: ``repro audit``'s tight overload overrides
AUDIT_OVERLOAD_OVERRIDES = {
    "aws.concurrency_limit": 8, "aws.burst_concurrency": 8,
    "aws.refill_per_s": 1.0, "azure.max_instances": 2,
    "azure.queue_depth_limit": 12, "azure.shed_deadline_s": 30.0,
    "gcp.max_instances": 2,
}
RETRIES = 3


def _latency(variants, workload: str, iterations: int,
             seed: int) -> List[CampaignSpec]:
    return [CampaignSpec(deployment=name, workload=workload, scale="small",
                         iterations=iterations, warmup=1, seed=seed)
            for name in variants]


def _video(variants, fanouts, seed: int) -> List[CampaignSpec]:
    return [CampaignSpec(deployment=name, workload="video", fanout=fanout,
                         campaign="latency", iterations=1, warmup=0,
                         think_time_s=0.0, settle_time_s=0.0, seed=seed,
                         invoke_kwargs={"n_workers": fanout})
            for fanout in fanouts for name in variants]


def _coldstart(variants, days: float, seed: int) -> List[CampaignSpec]:
    return [CampaignSpec(deployment=name, workload="ml-training",
                         scale="small", campaign="coldstart",
                         interval_s=3600.0, days=days, seed=seed)
            for name in variants]


def _overload(variants, rates, horizon_s: float, overrides, seed: int,
              audit) -> List[CampaignSpec]:
    return [CampaignSpec(deployment=name, workload="ml-training",
                         scale="small", campaign="overload",
                         arrival="uniform", arrival_rate_per_s=rate,
                         horizon_s=horizon_s, seed=seed,
                         calibration_overrides=overrides, audit=audit)
            for rate in rates for name in variants]


def _reliability(variants, plans, iterations: int, seed: int,
                 audit) -> List[CampaignSpec]:
    return [CampaignSpec(deployment=name, workload="ml-training",
                         scale="small", campaign="reliability",
                         iterations=iterations, warmup=1, seed=seed,
                         fault_plan=plan.to_items(), audit=audit)
            for plan in plans for name in variants]


def _audit_plans() -> List[FaultPlan]:
    return [
        FaultPlan(crash_probability=0.15, retry_max_attempts=RETRIES),
        FaultPlan(error_probability=0.2, retry_max_attempts=RETRIES),
        FaultPlan(queue_delay_probability=0.2, queue_delay_s=2.0,
                  queue_duplication_probability=0.3,
                  retry_max_attempts=RETRIES),
    ]


def _resilience(variants, modes, iterations: int,
                seed: int) -> List[CampaignSpec]:
    """``repro resilience --audit`` with the CLI's default mitigation."""
    policy = MitigationPolicy(
        breaker_failure_threshold=3, breaker_recovery_timeout_s=30.0,
        hedge_after_s=30.0, deadline_factor=6.0, request_timeout_s=240.0)
    specs = []
    for mode in modes:
        plan = FaultPlan(outage_windows=[(120.0, 60.0)], outage_mode=mode,
                         gray_latency_factor=3.0, gray_error_probability=0.2,
                         retry_max_attempts=RETRIES)
        specs.extend(CampaignSpec(
            deployment=name, workload="ml-training", scale="small",
            campaign="resilience", iterations=iterations, warmup=1,
            seed=seed, fault_plan=plan.to_items(),
            mitigation=policy.to_items(), slo_availability=0.999,
            audit=True) for name in variants)
    return specs


def paper_figures(seed: int, quick: bool = False) -> List[CampaignSpec]:
    if quick:
        return (_latency(("AWS-Step", "Az-Dorch"), "ml-training", 5, seed)
                + _latency(("GCP-Flows",), "ml-inference", 5, seed)
                + _video(("Az-Dorch",), (1, 5), seed)
                + _coldstart(("Az-Dorch",), 1.0, seed))
    return (_latency(ML_VARIANTS, "ml-training", 100, seed)
            + _latency(INFERENCE_VARIANTS, "ml-inference", 100, seed)
            + _video(VIDEO_VARIANTS, VIDEO_FANOUTS, seed)
            + _coldstart(COLDSTART_VARIANTS, 4.0, seed))


def overload_sweep(seed: int, quick: bool = False) -> List[CampaignSpec]:
    if quick:
        return _overload(("AWS-Step", "Az-Dent"), (0.5,), 60.0,
                         OVERLOAD_OVERRIDES, seed, None)
    return _overload(ML_VARIANTS, (0.5, 1.0, 2.0), 120.0,
                     OVERLOAD_OVERRIDES, seed, None)


def audited_chaos(seed: int, quick: bool = False) -> List[CampaignSpec]:
    if quick:
        return (_reliability(("AWS-Step", "Az-Dorch"), _audit_plans()[:1], 5,
                             seed, True)
                + _resilience(("Az-Dorch",), ("crash",), 5, seed)
                + _overload(("Az-Func",), (2.0,), 60.0,
                            AUDIT_OVERLOAD_OVERRIDES, seed, True))
    return (_reliability(CHAOS_VARIANTS, _audit_plans(), 20, seed, True)
            + _resilience(RESILIENCE_VARIANTS, ("crash", "gray"), 20, seed)
            + _overload(AUDIT_OVERLOAD_VARIANTS, (0.5, 2.0), 200.0,
                        AUDIT_OVERLOAD_OVERRIDES, seed, True))


def journaled_sweep(seed: int, quick: bool = False) -> List[CampaignSpec]:
    crash = [FaultPlan(crash_probability=0.1, retry_max_attempts=RETRIES)]
    if quick:
        return (_latency(("AWS-Lambda", "Az-Func", "GCP-Func"),
                         "ml-training", 3, seed)
                + _reliability(("AWS-Step",), crash, 3, seed, None))
    specs = []
    for spec_seed in range(seed, seed + 14):
        specs += (_latency(ML_VARIANTS, "ml-training", 10, spec_seed)
                  + _reliability(RELIABILITY_VARIANTS, crash, 5, spec_seed,
                                 None))
    return specs


#: workload name -> spec-list builder, in the order the benchmark runs them
WORKLOADS: Dict[str, Callable[..., List[CampaignSpec]]] = {
    "paper-figures": paper_figures,
    "overload-sweep": overload_sweep,
    "audited-chaos": audited_chaos,
    "journaled-sweep": journaled_sweep,
}
#: the workload whose specs run under ``SupervisedRunner`` (not through
#: ``execute_spec`` in the measuring process)
JOURNALED = "journaled-sweep"
