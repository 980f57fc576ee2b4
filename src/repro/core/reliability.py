"""Reliability campaigns: measuring the price of fault tolerance.

A reliability campaign runs the same workload twice from the same seed —
once under a :class:`~repro.platforms.faults.FaultPlan` and once
fault-free — and reports what the chaos cost: success rate, platform
retries, GB-s wasted on doomed attempts, per-run cost amplification and
tail-latency inflation.  This quantifies the paper's central trade: the
recovery machinery (Step Functions Retry/Catch, Durable Functions event
sourcing) buys fault tolerance with latency and money.

Both passes run on :func:`~repro.core.parallel.run_pass`, the
failure-tolerant loop resilience campaigns share, and
:func:`~repro.core.parallel.execute_spec` finalizes the faulted pass's
audit.  Everything is derived from ``(spec.seed, spec.fault_plan)``, so
a reliability outcome is bit-identical across the serial runner,
:class:`~repro.core.parallel.ParallelRunner` workers and cache hits,
exactly like the other campaign types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.metrics import percentile
from repro.core.parallel import (
    CampaignOutcome,
    CampaignSpec,
    baseline_ratio,
    run_pass,
)
from repro.core.testbed import Testbed


@dataclass(frozen=True)
class ReliabilitySummary:
    """The chaos bill for one deployment under one fault plan."""

    deployment: str
    platform: str
    total_runs: int
    successes: int
    failures: int
    #: retries the platforms performed absorbing the injected faults
    retries: int
    injected_crashes: int
    injected_errors: int
    injected_stragglers: int
    delayed_messages: int
    duplicated_messages: int
    host_crashes: int
    #: GB-s billed to invocation attempts that then crashed
    wasted_gb_s: float
    cost_per_run: float
    baseline_cost_per_run: float
    #: faulted cost / fault-free cost — the price of reliability
    cost_amplification: float
    p50_latency_s: float
    p99_latency_s: float
    baseline_p50_latency_s: float
    baseline_p99_latency_s: float
    #: faulted p99 / fault-free p99
    tail_inflation: float
    mean_recovery_time_s: float

    @property
    def success_rate(self) -> float:
        if self.total_runs == 0:
            return 0.0
        return self.successes / self.total_runs


def reliability_campaign(spec: CampaignSpec,
                         audit: bool) -> Tuple[Testbed, CampaignOutcome]:
    """Run the faulted pass and its fault-free baseline; summarize.

    Only the faulted pass is audited: it is the one exercising retries,
    duplicates and crash recovery, and the baseline pass would double
    every check for no extra signal.
    """
    faulted = run_pass(spec, spec.fault_plan_obj(), audit=audit)
    baseline = run_pass(spec, None)

    campaign, cost = faulted.campaign, faulted.cost
    faults = faulted.testbed.faults
    latencies = campaign.latencies
    baseline_latencies = baseline.campaign.latencies
    p50 = percentile(latencies, 50) if latencies else 0.0
    p99 = percentile(latencies, 99) if latencies else 0.0
    base_p50 = (percentile(baseline_latencies, 50)
                if baseline_latencies else 0.0)
    base_p99 = (percentile(baseline_latencies, 99)
                if baseline_latencies else 0.0)
    recovery_times = faults.host_recovery_times if faults else []

    summary = ReliabilitySummary(
        deployment=spec.deployment,
        platform=cost.platform,
        total_runs=spec.iterations,
        successes=len(campaign.runs),
        failures=faulted.failures,
        retries=faults.platform_retries if faults else 0,
        injected_crashes=faults.crashes if faults else 0,
        injected_errors=faults.transient_errors if faults else 0,
        injected_stragglers=faults.stragglers if faults else 0,
        delayed_messages=faults.delayed_messages if faults else 0,
        duplicated_messages=faults.duplicated_messages if faults else 0,
        host_crashes=faults.host_crashes if faults else 0,
        wasted_gb_s=faults.wasted_gb_s if faults else 0.0,
        cost_per_run=cost.total,
        baseline_cost_per_run=baseline.cost.total,
        cost_amplification=baseline_ratio(cost.total, baseline.cost.total),
        p50_latency_s=p50,
        p99_latency_s=p99,
        baseline_p50_latency_s=base_p50,
        baseline_p99_latency_s=base_p99,
        tail_inflation=baseline_ratio(p99, base_p99),
        mean_recovery_time_s=(sum(recovery_times) / len(recovery_times)
                              if recovery_times else 0.0))
    return faulted.testbed, CampaignOutcome(
        spec=spec, campaign=campaign, cost=cost, reliability=summary)
