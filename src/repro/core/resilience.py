"""Resilience campaigns: SLO verdicts through correlated outages.

A resilience campaign drives a closed-loop workload straight through
injected outage windows (zone crashes, gray degradation, brownouts,
partitions — see :mod:`repro.platforms.faults`) with a client-side
:class:`~repro.core.mitigation.MitigationPolicy` in front of every
invoke, and asks the operator's questions: what availability did the
deployment actually deliver, how fast did it recover after each window
(MTTR), how much of the error budget burned, what did the mitigation
itself cost (hedge overspend GB-s, cost overhead vs an unmitigated
baseline), and did the p99/availability SLOs hold?

Both passes run on :func:`~repro.core.parallel.run_pass`, the
failure-tolerant loop reliability campaigns share, with the policy's
:class:`~repro.core.mitigation.MitigationEngine` in the loop.  Like
every campaign type, the outcome is a pure function of the
:class:`~repro.core.parallel.CampaignSpec`: bit-identical across the
serial runner, :class:`~repro.core.parallel.ParallelRunner` workers and
cache replay, and audit-clean under the invariant auditor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.metrics import percentile
from repro.core.mitigation import MitigationPolicy
from repro.core.parallel import (
    CampaignOutcome,
    CampaignSpec,
    baseline_ratio,
    run_pass,
)
from repro.core.testbed import Testbed


@dataclass(frozen=True)
class ResilienceSummary:
    """One deployment's report card for surviving correlated outages."""

    deployment: str
    platform: str
    total_runs: int
    successes: int
    failures: int
    #: measured fraction of measured iterations that succeeded
    availability: float
    #: same workload, no faults, no mitigation (sanity anchor)
    baseline_availability: float
    #: failure rate / SLO-permitted failure rate (1.0 = budget gone)
    error_budget_burn: float
    #: the targets and their verdicts
    slo_availability: float
    slo_p99_s: float
    slo_availability_met: bool
    slo_p99_met: bool
    #: materialized outage windows, absolute ``(start, end)`` seconds
    outage_windows: Tuple[Tuple[float, float], ...]
    #: per-window time from outage start to the next observed success
    #: (censored at end-of-campaign when service never recovered)
    recovery_times_s: Tuple[float, ...]
    mean_recovery_time_s: float
    p50_latency_s: float
    p99_latency_s: float
    baseline_p99_latency_s: float
    #: mitigation accounting
    hedges_launched: int
    hedge_wins: int
    hedges_cancelled: int
    hedge_overspend_gb_s: float
    breaker_opens: int
    short_circuits: int
    deadline_abandons: int
    request_timeouts: int
    #: chaos accounting
    outages: int
    dropped_messages: int
    browned_out_messages: int
    gray_errors: int
    cost_per_run: float
    baseline_cost_per_run: float
    #: mitigated faulted cost / unmitigated fault-free cost
    mitigation_cost_overhead: float

    @property
    def success_rate(self) -> float:
        if self.total_runs == 0:
            return 0.0
        return self.successes / self.total_runs

    @property
    def slo_met(self) -> bool:
        return self.slo_availability_met and self.slo_p99_met


def _recovery_times(windows, success_times, end_of_run: float
                    ) -> Tuple[float, ...]:
    """Per-window MTTR: outage start to the next observed success.

    Windows that begin after the campaign ended produce no evidence;
    windows the service never recovered from are censored at the end of
    the run (a lower bound, like a real incident still open at report
    time).
    """
    times = []
    for start, _end in windows:
        if start >= end_of_run:
            continue
        recovered = next((t for t in success_times if t >= start), None)
        times.append((recovered if recovered is not None else end_of_run)
                     - start)
    return tuple(times)


def resilience_campaign(spec: CampaignSpec,
                        audit: bool) -> Tuple[Testbed, CampaignOutcome]:
    """Run the mitigated outage pass and its clean baseline; summarize.

    The baseline pass runs fault-free and mitigation-free (bar the hard
    request timeout, which also backstops partition-dropped messages in
    the faulted pass), so the summary's overhead ratios isolate what
    the chaos *plus its mitigation* cost.  Only the faulted pass is
    audited, like the reliability campaign's.
    """
    policy = spec.mitigation_obj()
    backstop = MitigationPolicy(request_timeout_s=policy.request_timeout_s)
    faulted = run_pass(spec, spec.fault_plan_obj(), audit=audit,
                       policy=policy)
    baseline = run_pass(spec, None, policy=backstop)

    campaign, cost, engine = faulted.campaign, faulted.cost, faulted.engine
    faults = faulted.testbed.faults
    windows = faults.outage_windows if faults else ()
    recovery = _recovery_times(windows, faulted.success_times,
                               faulted.testbed.now)
    latencies = campaign.latencies
    baseline_latencies = baseline.campaign.latencies
    p50 = percentile(latencies, 50) if latencies else 0.0
    p99 = percentile(latencies, 99) if latencies else 0.0
    base_p99 = (percentile(baseline_latencies, 99)
                if baseline_latencies else 0.0)

    iterations = spec.iterations      # positive: the spec checks it
    failures = faulted.failures
    availability = (iterations - failures) / iterations
    baseline_availability = (iterations - baseline.failures) / iterations
    failure_rate = failures / iterations
    budget = 1.0 - spec.slo_availability
    burn = (failure_rate / budget if budget > 0
            else (0.0 if failures == 0 else float("inf")))
    slo_availability_met = availability >= spec.slo_availability
    slo_p99_met = spec.slo_p99_s <= 0 or p99 <= spec.slo_p99_s

    summary = ResilienceSummary(
        deployment=spec.deployment,
        platform=cost.platform,
        total_runs=iterations,
        successes=len(campaign.runs),
        failures=failures,
        availability=availability,
        baseline_availability=baseline_availability,
        error_budget_burn=burn,
        slo_availability=spec.slo_availability,
        slo_p99_s=spec.slo_p99_s,
        slo_availability_met=slo_availability_met,
        slo_p99_met=slo_p99_met,
        outage_windows=tuple(windows),
        recovery_times_s=recovery,
        mean_recovery_time_s=(sum(recovery) / len(recovery)
                              if recovery else 0.0),
        p50_latency_s=p50,
        p99_latency_s=p99,
        baseline_p99_latency_s=base_p99,
        hedges_launched=engine.hedges_launched,
        hedge_wins=engine.hedge_wins,
        hedges_cancelled=engine.hedges_cancelled,
        hedge_overspend_gb_s=engine.hedge_overspend_gb_s,
        breaker_opens=engine.breaker_opens,
        short_circuits=engine.short_circuits,
        deadline_abandons=engine.deadline_abandons,
        request_timeouts=engine.request_timeouts,
        outages=len(windows),
        dropped_messages=faults.dropped_messages if faults else 0,
        browned_out_messages=faults.browned_out_messages if faults else 0,
        gray_errors=faults.gray_errors if faults else 0,
        cost_per_run=cost.total,
        baseline_cost_per_run=baseline.cost.total,
        mitigation_cost_overhead=baseline_ratio(cost.total,
                                                baseline.cost.total))
    return faulted.testbed, CampaignOutcome(
        spec=spec, campaign=campaign, cost=cost, resilience=summary)
