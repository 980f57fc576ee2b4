"""Reliability campaigns: determinism, summary contents, persistence.

The acceptance bar for the chaos harness: the same ``(seed, FaultPlan)``
must yield a bit-identical reliability report whether the campaign runs
in this process, in a worker pool, or is replayed from the on-disk
cache.
"""

import json

import pytest

from repro.core import (
    CampaignOutcome,
    CampaignSpec,
    FaultPlan,
    ParallelRunner,
    ReliabilitySummary,
    ResultCache,
    execute_spec,
)
from repro.core.cache import cache_key
from repro.core.persistence import (
    campaign_to_dict,
    cost_report_to_dict,
    reliability_from_dict,
    reliability_to_dict,
)

pytestmark = pytest.mark.faults


def outcome_blob(outcome: CampaignOutcome) -> str:
    """Every observable of a reliability outcome, as one string."""
    return json.dumps({
        "campaign": campaign_to_dict(outcome.campaign),
        "cost": cost_report_to_dict(outcome.cost),
        "reliability": (reliability_to_dict(outcome.reliability)
                        if outcome.reliability is not None else None),
    }, sort_keys=True, default=repr)


PLAN = FaultPlan(crash_probability=0.2, error_probability=0.05,
                 retry_max_attempts=3, retry_interval_s=1.0)

AWS_SPEC = CampaignSpec(deployment="AWS-Step", workload="ml-training",
                        scale="small", campaign="reliability",
                        iterations=3, warmup=1, seed=83,
                        fault_plan=PLAN.to_items())
AZ_SPEC = CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                       scale="small", campaign="reliability",
                       iterations=3, warmup=1, seed=83,
                       fault_plan=PLAN.to_items())


# -- spec plumbing -----------------------------------------------------------------

def test_spec_validates_fault_plan_eagerly():
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step", campaign="reliability",
                     fault_plan=(("crash_probability", 2.0),))
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step",
                     fault_plan=(("not_a_fault", 1),))
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step", campaign="reliability",
                     iterations=0)


def test_fault_plan_changes_spec_identity():
    base = CampaignSpec(deployment="AWS-Step", campaign="reliability",
                        iterations=2, seed=1)
    faulted = CampaignSpec(deployment="AWS-Step", campaign="reliability",
                           iterations=2, seed=1,
                           fault_plan=PLAN.to_items())
    assert base.spec_hash() != faulted.spec_hash()
    assert cache_key(base) != cache_key(faulted)
    assert base.fault_plan_obj() is None
    assert faulted.fault_plan_obj() == PLAN


def test_fault_plan_item_order_does_not_change_identity():
    items = PLAN.to_items()
    shuffled = tuple(reversed(items))
    first = CampaignSpec(deployment="AWS-Step", campaign="reliability",
                         iterations=2, fault_plan=items)
    second = CampaignSpec(deployment="AWS-Step", campaign="reliability",
                          iterations=2, fault_plan=shuffled)
    assert first.spec_hash() == second.spec_hash()


# -- end-to-end execution ----------------------------------------------------------

@pytest.mark.parametrize("spec", [AWS_SPEC, AZ_SPEC],
                         ids=["AWS-Step", "Az-Dorch"])
def test_reliability_campaign_produces_summary(spec):
    outcome = execute_spec(spec)
    summary = outcome.reliability
    assert isinstance(summary, ReliabilitySummary)
    assert summary.deployment == spec.deployment
    assert summary.total_runs == spec.iterations
    assert summary.successes + summary.failures == summary.total_runs
    assert 0.0 <= summary.success_rate <= 1.0
    # The plan actually fired: some fault was injected across the runs.
    injected = (summary.injected_crashes + summary.injected_errors
                + summary.injected_stragglers)
    assert injected > 0
    # Crashed attempts spent billable compute.
    if summary.injected_crashes:
        assert summary.wasted_gb_s > 0
    assert summary.cost_per_run > 0
    assert summary.baseline_cost_per_run > 0
    assert summary.cost_amplification == pytest.approx(
        summary.cost_per_run / summary.baseline_cost_per_run)


def test_fault_free_reliability_is_its_own_baseline():
    spec = CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                        scale="small", campaign="reliability",
                        iterations=2, warmup=0, seed=19)
    summary = execute_spec(spec).reliability
    assert summary.failures == 0
    assert summary.retries == 0
    assert summary.cost_amplification == pytest.approx(1.0)
    assert summary.tail_inflation == pytest.approx(1.0)
    assert summary.p99_latency_s == summary.baseline_p99_latency_s


def test_host_crash_recovery_is_not_counted_as_retries():
    """Regression guard: history-replay recovery after a host crash
    re-drives the orchestrator, but those replayed activities are
    restarts of *lost* work, not platform retries — the retry total must
    stay zero when host crashes are the only injected fault."""
    plan = FaultPlan(host_crash_times=(40.0,))
    spec = CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                        scale="small", campaign="reliability",
                        iterations=3, warmup=0, seed=7,
                        fault_plan=plan.to_items())
    summary = execute_spec(spec).reliability
    assert summary.host_crashes == 1          # the crash actually fired
    assert summary.retries == 0               # recovery != retry
    assert summary.mean_recovery_time_s >= 0.0


# -- bit-identity: serial / worker pool / cache (acceptance) -----------------------

@pytest.mark.parametrize("spec", [AWS_SPEC, AZ_SPEC],
                         ids=["AWS-Step", "Az-Dorch"])
def test_faulted_campaign_is_bit_identical_across_runners(spec, tmp_path):
    serial = execute_spec(spec)

    # A decoy spec gives the second worker a spec, as in test_parallel.py.
    decoy = CampaignSpec(deployment=spec.deployment,
                         workload=spec.workload, scale=spec.scale,
                         campaign=spec.campaign,
                         iterations=spec.iterations, warmup=spec.warmup,
                         seed=spec.seed + 1, fault_plan=spec.fault_plan)
    cache = ResultCache(tmp_path / "cache")
    parallel = ParallelRunner(workers=2, cache=cache)
    pooled = parallel.run([spec, decoy])[0]
    replay = parallel.run([spec])[0]

    reference = outcome_blob(serial)
    assert outcome_blob(pooled) == reference
    assert outcome_blob(replay) == reference
    assert not pooled.cached and replay.cached

    # The cached summary preserves the exact report, field for field.
    assert replay.reliability == serial.reliability
    assert replay.reliability.wasted_gb_s == serial.reliability.wasted_gb_s


def test_reliability_survives_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    outcome = execute_spec(AWS_SPEC)
    cache.put(AWS_SPEC, outcome)
    replay = cache.get(AWS_SPEC)
    assert replay is not None and replay.cached
    assert replay.reliability == outcome.reliability


# -- persistence -------------------------------------------------------------------

def test_reliability_summary_dict_round_trip():
    summary = execute_spec(AZ_SPEC).reliability
    document = reliability_to_dict(summary)
    assert document["kind"] == "reliability"
    assert reliability_from_dict(document) == summary
    assert reliability_from_dict(json.loads(json.dumps(document))) == summary
