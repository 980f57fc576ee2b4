"""Overload campaigns: determinism, four-bucket accounting, persistence.

The acceptance bar for the overload harness: the same spec must yield a
bit-identical overload report whether the campaign runs in this process,
in a worker pool, or is replayed from the on-disk cache — and at every
swept rate the four buckets (succeeded, throttled, shed, failed) must
account for every offered request while both platforms stay live.
"""

import json

import pytest

from repro.core import (
    CampaignOutcome,
    CampaignSpec,
    OverloadSummary,
    ParallelRunner,
    ResultCache,
    execute_spec,
)
from repro.core.cache import cache_key
from repro.core.overload import classify_error
from repro.core.persistence import from_dict, to_dict
from repro.platforms.base import LoadShedError, ThrottlingError

pytestmark = pytest.mark.overload

OVERRIDES = {
    "aws.concurrency_limit": 8,
    "aws.burst_concurrency": 8,
    "aws.refill_per_s": 1.0,
    "azure.max_instances": 2,
    "azure.queue_depth_limit": 12,
    "azure.shed_deadline_s": 30.0,
}


def spec_for(variant, rate, seed=29, horizon=60.0, arrival="poisson"):
    return CampaignSpec(deployment=variant, workload="ml-training",
                        scale="small", campaign="overload",
                        arrival=arrival, arrival_rate_per_s=rate,
                        horizon_s=horizon, seed=seed,
                        calibration_overrides=OVERRIDES)


def outcome_blob(outcome: CampaignOutcome) -> str:
    """Every observable of an overload outcome, as one string."""
    return json.dumps({
        "campaign": to_dict(outcome.campaign),
        "cost": to_dict(outcome.cost),
        "overload": (to_dict(outcome.overload)
                     if outcome.overload is not None else None),
    }, sort_keys=True, default=repr)


# -- spec plumbing -----------------------------------------------------------------

def test_overload_spec_requires_rate_and_horizon():
    with pytest.raises(ValueError, match="arrival_rate_per_s"):
        CampaignSpec(deployment="AWS-Step", campaign="overload",
                     horizon_s=60.0)
    with pytest.raises(ValueError, match="horizon_s"):
        CampaignSpec(deployment="AWS-Step", campaign="overload",
                     arrival_rate_per_s=1.0)
    with pytest.raises(ValueError, match="arrival"):
        CampaignSpec(deployment="AWS-Step", campaign="overload",
                     arrival="lumpy", arrival_rate_per_s=1.0,
                     horizon_s=60.0)


def test_rate_changes_spec_identity():
    slow = spec_for("AWS-Step", 0.5)
    fast = spec_for("AWS-Step", 2.0)
    assert slow.spec_hash() != fast.spec_hash()
    assert cache_key(slow) != cache_key(fast)


def test_spec_rejects_bad_overload_calibration():
    with pytest.raises(ValueError, match="burst_concurrency"):
        CampaignSpec(
            deployment="AWS-Step", campaign="overload",
            arrival_rate_per_s=1.0, horizon_s=60.0,
            calibration_overrides={"aws.burst_concurrency": 0},
        ).calibrations()
    with pytest.raises(ValueError, match="queue_depth_limit"):
        CampaignSpec(
            deployment="Az-Func", campaign="overload",
            arrival_rate_per_s=1.0, horizon_s=60.0,
            calibration_overrides={"azure.queue_depth_limit": -1},
        ).calibrations()


# -- error classification ----------------------------------------------------------

@pytest.mark.parametrize("error, bucket", [
    (ThrottlingError("rate exceeded"), "throttled"),
    (LoadShedError("dropped"), "shed"),
    (RuntimeError("AWS-Step training failed: "
                  "Lambda.TooManyRequestsException"), "throttled"),
    (RuntimeError("execution of 'train' shed after waiting 45.0s"), "shed"),
    (RuntimeError("handler blew up"), "failed"),
])
def test_classify_error(error, bucket):
    assert classify_error(error) == bucket


# -- end-to-end execution ----------------------------------------------------------

@pytest.mark.parametrize("variant", ["AWS-Step", "Az-Func"])
def test_buckets_account_for_every_offered_request(variant):
    summary = execute_spec(spec_for(variant, 1.0)).overload
    assert isinstance(summary, OverloadSummary)
    assert summary.offered > 0
    assert (summary.succeeded + summary.throttled + summary.shed
            + summary.failed) == summary.offered
    assert summary.failed == 0   # overload is not failure
    assert 0.0 <= summary.success_rate <= 1.0
    assert summary.goodput_per_s == pytest.approx(
        summary.succeeded / summary.horizon_s)


def test_both_platforms_stay_live_past_saturation():
    """At the highest rate neither platform collapses: AWS sheds load via
    429 + backoff, Azure via bounded queues and deadline drops."""
    aws = execute_spec(spec_for("AWS-Step", 2.0)).overload
    azure = execute_spec(spec_for("Az-Func", 2.0)).overload
    assert aws.succeeded > 0 and azure.succeeded > 0
    assert aws.throttled > 0          # admission rejected the excess
    assert aws.retry_amplification > 1.0
    assert azure.throttled + azure.shed > 0   # queues pushed back
    assert azure.retries == 0         # no retry traffic on the Azure side
    for summary in (aws, azure):
        assert summary.failed == 0
        assert summary.p99_latency_s > 0


def test_light_load_passes_untouched():
    summary = execute_spec(spec_for("AWS-Step", 0.1)).overload
    assert summary.throttled == summary.shed == summary.failed == 0
    assert summary.succeeded == summary.offered
    assert summary.retry_amplification == pytest.approx(1.0)


# -- bit-identity: serial / worker pool / cache (acceptance) -----------------------

@pytest.mark.parametrize("variant", ["AWS-Step", "Az-Func"])
def test_overload_campaign_is_bit_identical_across_runners(variant,
                                                           tmp_path):
    spec = spec_for(variant, 1.5)
    serial = execute_spec(spec)

    # A decoy spec gives the second worker a spec, as in test_parallel.py.
    decoy = spec_for(variant, 1.5, seed=spec.seed + 1)
    cache = ResultCache(tmp_path / "cache")
    parallel = ParallelRunner(workers=2, cache=cache)
    pooled = parallel.run([spec, decoy])[0]
    replay = parallel.run([spec])[0]

    reference = outcome_blob(serial)
    assert outcome_blob(pooled) == reference
    assert outcome_blob(replay) == reference
    assert not pooled.cached and replay.cached
    assert replay.overload == serial.overload


def test_overload_survives_cache_round_trip(tmp_path):
    spec = spec_for("Az-Func", 1.0)
    cache = ResultCache(tmp_path / "cache")
    outcome = execute_spec(spec)
    cache.put(spec, outcome)
    replay = cache.get(spec)
    assert replay is not None and replay.cached
    assert replay.overload == outcome.overload


# -- persistence -------------------------------------------------------------------

def test_overload_summary_dict_round_trip():
    summary = execute_spec(spec_for("AWS-Step", 1.0)).overload
    document = to_dict(summary)
    assert document["kind"] == "overload"
    assert from_dict(OverloadSummary, document) == summary
    assert from_dict(OverloadSummary,
                     json.loads(json.dumps(document))) == summary
