"""Resilience campaigns: determinism, SLO verdicts, mitigation plumbing.

The acceptance bar mirrors the reliability suite: the same
``(seed, FaultPlan, MitigationPolicy)`` must yield a bit-identical
resilience report whether the campaign runs serially, in a worker pool,
or is replayed from the on-disk cache — and every audited pass must
finish with the invariant auditor clean.
"""

import json

import pytest

from repro.core import (
    CampaignOutcome,
    CampaignSpec,
    CircuitOpenError,
    FaultPlan,
    MitigationEngine,
    MitigationPolicy,
    ParallelRunner,
    ResilienceSummary,
    ResultCache,
    Testbed,
    execute_spec,
)
from repro.core.cache import cache_key
from repro.core.persistence import (
    campaign_to_dict,
    cost_report_to_dict,
    resilience_from_dict,
    resilience_to_dict,
)

pytestmark = [pytest.mark.resilience, pytest.mark.faults]


def outcome_blob(outcome: CampaignOutcome) -> str:
    """Every observable of a resilience outcome, as one string."""
    return json.dumps({
        "campaign": campaign_to_dict(outcome.campaign),
        "cost": cost_report_to_dict(outcome.cost),
        "resilience": (resilience_to_dict(outcome.resilience)
                       if outcome.resilience is not None else None),
    }, sort_keys=True, default=repr)


PLAN = FaultPlan(outage_windows=((60.0, 45.0),), outage_mode="crash",
                 retry_max_attempts=2, retry_interval_s=1.0)
POLICY = MitigationPolicy(breaker_failure_threshold=4,
                          breaker_recovery_timeout_s=20.0,
                          hedge_after_s=30.0, max_hedges=1,
                          deadline_factor=8.0, deadline_min_s=10.0,
                          request_timeout_s=240.0)


def make_spec(deployment="Az-Dorch", seed=83, **overrides):
    kwargs = dict(deployment=deployment, workload="ml-training",
                  scale="small", campaign="resilience",
                  iterations=3, warmup=1, seed=seed,
                  fault_plan=PLAN.to_items(),
                  mitigation=POLICY.to_items(),
                  slo_availability=0.99, audit=True)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


# -- policy validation -------------------------------------------------------------

def test_policy_rejects_bad_values():
    with pytest.raises(ValueError):
        MitigationPolicy(breaker_failure_threshold=-1)
    with pytest.raises(ValueError):
        MitigationPolicy(breaker_recovery_timeout_s=0.0)
    with pytest.raises(ValueError):
        MitigationPolicy(hedge_after_s=-0.5)
    with pytest.raises(ValueError):
        MitigationPolicy(max_hedges=0)
    with pytest.raises(ValueError):
        MitigationPolicy(deadline_factor=-1.0)
    with pytest.raises(ValueError):
        MitigationPolicy(request_timeout_s=0.0)


def test_policy_items_round_trip():
    items = POLICY.to_items()
    assert MitigationPolicy.from_items(items) == POLICY
    assert MitigationPolicy.from_items(tuple(reversed(items))) == POLICY
    with pytest.raises(ValueError):
        MitigationPolicy.from_items((("not_a_knob", 1),))


def test_default_policy_is_inert():
    assert not MitigationPolicy().enabled
    assert MitigationPolicy(hedge_after_s=5.0).enabled
    assert MitigationPolicy(breaker_failure_threshold=3).enabled
    assert MitigationPolicy(deadline_factor=4.0).enabled


# -- spec plumbing -----------------------------------------------------------------

def test_spec_validates_mitigation_and_slo_eagerly():
    with pytest.raises(ValueError):
        make_spec(mitigation=(("hedge_after_s", -1.0),))
    with pytest.raises(ValueError):
        make_spec(mitigation=(("not_a_knob", 1),))
    with pytest.raises(ValueError):
        make_spec(slo_availability=0.0)
    with pytest.raises(ValueError):
        make_spec(slo_availability=1.5)
    with pytest.raises(ValueError):
        make_spec(slo_p99_s=-1.0)
    with pytest.raises(ValueError):
        make_spec(iterations=0)


def test_spec_accepts_nested_outage_windows_and_stays_hashable():
    spec = make_spec(fault_plan=(("outage_windows", [[60.0, 45.0]]),))
    hash(spec)                               # frozen all the way down
    assert spec.fault_plan_obj().outage_windows == ((60.0, 45.0),)
    assert spec.mitigation_obj() == POLICY


def test_mitigation_changes_spec_identity():
    base = make_spec(mitigation=())
    mitigated = make_spec()
    assert base.spec_hash() != mitigated.spec_hash()
    assert cache_key(base) != cache_key(mitigated)
    # No pairs → the inert default policy (hard timeout only).
    assert base.mitigation_obj() == MitigationPolicy()


# -- end-to-end execution ----------------------------------------------------------

@pytest.mark.parametrize(
    "deployment", ["AWS-Step", "Az-Dorch", "GCP-Flows"])
def test_resilience_campaign_produces_summary(deployment):
    outcome = execute_spec(make_spec(deployment=deployment))
    summary = outcome.resilience
    assert isinstance(summary, ResilienceSummary)
    assert summary.deployment == deployment
    assert summary.total_runs == 3
    assert summary.successes + summary.failures == summary.total_runs
    assert 0.0 <= summary.availability <= 1.0
    assert summary.outage_windows == ((60.0, 105.0),)
    assert summary.slo_availability == 0.99
    assert summary.slo_availability_met == (
        summary.availability >= summary.slo_availability)
    assert summary.error_budget_burn >= 0.0
    assert summary.mean_recovery_time_s >= 0.0
    assert summary.cost_per_run > 0
    assert summary.baseline_cost_per_run > 0
    # The audited pass finished clean.
    assert outcome.audit is not None and outcome.audit.passed


def test_resilience_campaign_is_audit_clean_in_gray_mode():
    plan = FaultPlan(outage_windows=((40.0, 60.0),), outage_mode="gray",
                     gray_latency_factor=3.0, gray_error_probability=0.3,
                     brownout_delay_s=2.0, partition_drop_probability=0.2,
                     retry_max_attempts=2, retry_interval_s=1.0)
    outcome = execute_spec(make_spec(deployment="Az-Dorch",
                                     fault_plan=plan.to_items()))
    summary = outcome.resilience
    assert outcome.audit is not None and outcome.audit.passed
    # Gray degradation fired: slowdowns/errors/brownouts are accounted.
    chaos = (summary.gray_errors + summary.browned_out_messages
             + summary.dropped_messages)
    assert summary.total_runs == 3
    assert chaos >= 0                      # counters survive persistence


def test_recovery_times_are_censored_at_end_of_run():
    from repro.core.resilience import _recovery_times
    windows = ((10.0, 20.0), (50.0, 60.0), (500.0, 600.0))
    # Recovered after the first window, never after the second.
    times = _recovery_times(windows, [5.0, 25.0], end_of_run=100.0)
    assert times == (15.0, 50.0)           # censored at end-of-run


# -- mitigation engine behaviour ---------------------------------------------------

def _engine(testbed, policy, label="test"):
    return MitigationEngine(policy=policy, env=testbed.env,
                            streams=testbed.streams, label=label,
                            gb_s_probe=lambda: 0.0)


def test_breaker_opens_and_recovers_half_open():
    testbed = Testbed(seed=11, platforms=["aws"])
    policy = MitigationPolicy(breaker_failure_threshold=2,
                              breaker_recovery_timeout_s=10.0,
                              request_timeout_s=60.0)
    engine = _engine(testbed, policy)

    def failing():
        yield testbed.env.timeout(0.1)
        raise RuntimeError("induced")

    def succeeding():
        yield testbed.env.timeout(0.1)
        return "ok"

    for _ in range(2):
        with pytest.raises(RuntimeError, match="induced"):
            testbed.run(engine.call(failing))
    assert engine.breaker_opens == 1
    with pytest.raises(CircuitOpenError):
        testbed.run(engine.call(failing))
    assert engine.short_circuits == 1

    # After the recovery timeout a half-open probe is admitted, and a
    # success closes the breaker again.
    def wait():
        yield testbed.env.timeout(20.0)
    testbed.run(wait())
    assert testbed.run(engine.call(succeeding)) == "ok"
    assert engine.breaker_probes == 1
    assert testbed.run(engine.call(succeeding)) == "ok"


def test_adaptive_deadline_abandons_stragglers():
    testbed = Testbed(seed=11, platforms=["aws"])
    policy = MitigationPolicy(deadline_factor=2.0, deadline_min_s=0.5,
                              request_timeout_s=600.0)
    engine = _engine(testbed, policy)

    def quick():
        yield testbed.env.timeout(0.2)
        return "quick"

    def straggler():
        yield testbed.env.timeout(1000.0)
        return "late"

    for _ in range(5):                     # warm the latency EWMA
        assert testbed.run(engine.call(quick)) == "quick"
    before = testbed.now
    with pytest.raises(Exception):
        testbed.run(engine.call(straggler))
    assert engine.deadline_abandons == 1
    # Abandoned at the adaptive deadline, far before 1000s elapsed.
    assert testbed.now - before < 100.0


def test_hedging_races_and_cancels_the_loser():
    testbed = Testbed(seed=11, platforms=["aws"])
    policy = MitigationPolicy(hedge_after_s=1.0, max_hedges=1,
                              request_timeout_s=600.0)
    engine = _engine(testbed, policy)
    durations = iter([50.0, 2.0])          # first attempt slow, hedge fast

    def variable():
        yield testbed.env.timeout(next(durations))
        return "done"

    assert testbed.run(engine.call(variable)) == "done"
    assert engine.hedges_launched == 1
    assert engine.hedge_wins == 1
    assert engine.hedges_cancelled == 1
    assert testbed.now == pytest.approx(3.0)   # hedge at 1.0 + 2.0s run


# -- bit-identity: serial / worker pool / cache (acceptance) -----------------------

@pytest.mark.parametrize(
    "deployment", ["AWS-Step", "Az-Dorch", "GCP-Flows"])
def test_resilience_is_bit_identical_across_runners(deployment, tmp_path):
    spec = make_spec(deployment=deployment)
    serial = execute_spec(spec)

    # A decoy spec gives the second worker a spec, as in test_parallel.py.
    decoy = make_spec(deployment=deployment, seed=spec.seed + 1)
    cache = ResultCache(tmp_path / "cache")
    runner = ParallelRunner(workers=2, cache=cache)
    pooled = runner.run([spec, decoy])[0]
    replay = runner.run([spec])[0]

    reference = outcome_blob(serial)
    assert outcome_blob(pooled) == reference
    assert outcome_blob(replay) == reference
    assert not pooled.cached and replay.cached
    assert replay.resilience == serial.resilience


def test_resilience_survives_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = make_spec()
    outcome = execute_spec(spec)
    cache.put(spec, outcome)
    replay = cache.get(spec)
    assert replay is not None and replay.cached
    assert replay.resilience == outcome.resilience
    assert replay.resilience.outage_windows == ((60.0, 105.0),)


# -- persistence -------------------------------------------------------------------

def test_resilience_summary_dict_round_trip():
    summary = execute_spec(make_spec()).resilience
    document = resilience_to_dict(summary)
    assert document["kind"] == "resilience"
    assert resilience_from_dict(document) == summary
    assert resilience_from_dict(json.loads(json.dumps(document))) == summary
