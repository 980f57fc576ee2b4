"""Tests for the parallel campaign engine, spec determinism and cache.

The load-bearing property is bit-identity: a :class:`CampaignSpec`
executed serially in this process, in a worker process, or replayed from
the on-disk cache must produce the *same* campaign — latencies,
cold-start delays, breakdowns and cost meters — or the parallel engine
is not a drop-in replacement for the serial runner.
"""

import itertools
import json

import pytest

from repro.core import (
    CampaignOutcome,
    CampaignSpec,
    ExperimentRunner,
    ParallelRunner,
    ResultCache,
    Testbed,
    build_ml_training_deployments,
    build_video_deployments,
    cost_report,
    execute_spec,
)
from repro.core.cache import cache_key
from repro.core.deployments.base import Deployment
from repro.core.persistence import campaign_to_dict, cost_report_to_dict


def outcome_blob(outcome: CampaignOutcome) -> str:
    """Every observable of an outcome, as one comparable string."""
    return json.dumps({
        "campaign": campaign_to_dict(outcome.campaign),
        "cost": cost_report_to_dict(outcome.cost),
        "idle": outcome.idle_transactions,
    }, sort_keys=True, default=repr)


# -- spec validation and identity ------------------------------------------------

def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step", workload="quantum")
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step", campaign="sideways")
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step", iterations=0)
    with pytest.raises(ValueError):
        CampaignSpec(deployment="AWS-Step",
                     calibration_overrides={"scale_interval_s": 5.0})


def test_spec_hash_is_stable_and_sensitive():
    spec = CampaignSpec(deployment="AWS-Step", iterations=5, seed=3)
    same = CampaignSpec(deployment="AWS-Step", iterations=5, seed=3)
    other = CampaignSpec(deployment="AWS-Step", iterations=5, seed=4)
    assert spec.spec_hash() == same.spec_hash()
    assert spec.spec_hash() != other.spec_hash()
    assert spec == same and hash(spec) == hash(same)


def test_override_order_does_not_change_identity():
    first = CampaignSpec(
        deployment="Az-Dorch",
        calibration_overrides=[("azure.scale_interval_s", 10.0),
                               ("aws.concurrency_limit", 500)])
    second = CampaignSpec(
        deployment="Az-Dorch",
        calibration_overrides=[("aws.concurrency_limit", 500),
                               ("azure.scale_interval_s", 10.0)])
    assert first.spec_hash() == second.spec_hash()
    assert cache_key(first) == cache_key(second)


def test_calibration_override_changes_cache_key_only_via_calibration():
    base = CampaignSpec(deployment="Az-Dorch")
    tweaked = CampaignSpec(
        deployment="Az-Dorch",
        calibration_overrides={"azure.scale_interval_s": 99.0})
    assert base.calibration_hash() != tweaked.calibration_hash()
    assert cache_key(base) != cache_key(tweaked)
    assert tweaked.calibrations()["azure"].scale_interval_s == 99.0
    with pytest.raises(AttributeError):
        CampaignSpec(deployment="Az-Dorch",
                     calibration_overrides={"azure.not_a_field": 1}
                     ).calibrations()


# -- determinism: serial / worker / cache (satellite S3 + acceptance) ------------

ML_SPEC = CampaignSpec(deployment="Az-Dorch", workload="ml-training",
                       scale="small", iterations=3, warmup=1, seed=29)
VIDEO_SPEC = CampaignSpec(deployment="AWS-Step", workload="video",
                          fanout=4, campaign="latency", iterations=1,
                          warmup=0, think_time_s=0.0, settle_time_s=0.0,
                          seed=7, invoke_kwargs={"n_workers": 4})


def serial_reference(spec: CampaignSpec) -> CampaignOutcome:
    """The spec's campaign, hand-driven through the serial runner."""
    Deployment._run_ids = itertools.count(1)
    testbed = Testbed(seed=spec.seed, calibrations=spec.calibrations())
    if spec.workload == "ml-training":
        deployment = build_ml_training_deployments(
            testbed, spec.scale, seed=spec.workload_seed)[spec.deployment]
    else:
        deployment = build_video_deployments(
            testbed, n_workers=spec.fanout,
            seed=spec.workload_seed)[spec.deployment]
    runner = ExperimentRunner(think_time_s=spec.think_time_s,
                              settle_time_s=spec.settle_time_s)
    campaign = runner.run_campaign(deployment, spec.iterations,
                                   warmup=spec.warmup,
                                   invoke_kwargs=dict(spec.invoke_kwargs)
                                   or None)
    cost = cost_report(deployment,
                       per_runs=spec.warmup + spec.iterations)
    return CampaignOutcome(spec=spec, campaign=campaign, cost=cost)


@pytest.mark.parametrize("spec", [ML_SPEC, VIDEO_SPEC],
                         ids=["ml-training", "video"])
def test_spec_matches_hand_driven_serial_runner(spec):
    assert outcome_blob(serial_reference(spec)) == \
        outcome_blob(execute_spec(spec))


@pytest.mark.parametrize("spec", [ML_SPEC, VIDEO_SPEC],
                         ids=["ml-training", "video"])
def test_worker_process_is_bit_identical(spec, tmp_path):
    """Serial in-process, worker-process, and two cache replays agree."""
    serial = execute_spec(spec)

    # Two specs keep both workers busy (the runner degrades to serial
    # if the sandbox forbids processes, which still must be
    # bit-identical).
    decoy = CampaignSpec(deployment=spec.deployment,
                         workload=spec.workload, scale=spec.scale,
                         fanout=spec.fanout, campaign=spec.campaign,
                         iterations=spec.iterations, warmup=spec.warmup,
                         think_time_s=spec.think_time_s,
                         settle_time_s=spec.settle_time_s,
                         invoke_kwargs=spec.invoke_kwargs,
                         seed=spec.seed + 1)
    cache = ResultCache(tmp_path / "cache")
    parallel = ParallelRunner(workers=2, cache=cache)
    first = parallel.run([spec, decoy])[0]
    replay = parallel.run([spec])[0]
    again = parallel.run([spec])[0]

    reference = outcome_blob(serial)
    assert outcome_blob(first) == reference
    assert outcome_blob(replay) == reference
    assert outcome_blob(again) == reference
    assert not first.cached and replay.cached and again.cached

    # The cached campaign preserves the exact floats.
    assert replay.campaign.latencies == serial.campaign.latencies
    assert replay.campaign.cold_start_delays == \
        serial.campaign.cold_start_delays
    assert replay.cost.gb_s == serial.cost.gb_s
    assert replay.cost.transaction_count == serial.cost.transaction_count


def test_outcomes_come_back_in_spec_order(tmp_path):
    specs = [CampaignSpec(deployment=name, iterations=2, warmup=0,
                          seed=11)
             for name in ("AWS-Lambda", "Az-Func", "Az-Queue")]
    outcomes = ParallelRunner(
        workers=2, cache=ResultCache(tmp_path / "c")).run(specs)
    assert [outcome.spec.deployment for outcome in outcomes] == \
        ["AWS-Lambda", "Az-Func", "Az-Queue"]
    assert all(outcome.campaign.runs for outcome in outcomes)


# -- campaign types through the spec interface -----------------------------------

def test_coldstart_spec_executes():
    spec = CampaignSpec(deployment="Az-Dorch", campaign="coldstart",
                        interval_s=3600.0, days=0.2, seed=5)
    outcome = execute_spec(spec)
    assert outcome.campaign.cold_start_delays
    assert outcome_blob(outcome) == outcome_blob(execute_spec(spec))


def test_fanout_spec_executes_and_meters_idle():
    spec = CampaignSpec(deployment="Az-Dorch", workload="video",
                        campaign="fanout", fanout=3, batch=2,
                        settle_time_s=5.0, idle_window_s=600.0, seed=1)
    outcome = execute_spec(spec)
    assert len(outcome.campaign.runs) == 2
    assert outcome.idle_transactions >= 0
    assert outcome_blob(outcome) == outcome_blob(execute_spec(spec))


# -- cache mechanics -------------------------------------------------------------

def test_cache_miss_on_empty_and_corrupt_documents(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    spec = CampaignSpec(deployment="AWS-Lambda", iterations=2, warmup=0)
    assert cache.get(spec) is None and len(cache) == 0

    outcome = execute_spec(spec)
    path = cache.put(spec, outcome)
    assert path.exists() and len(cache) == 1
    assert outcome_blob(cache.get(spec)) == outcome_blob(outcome)

    path.write_text("not json {")
    assert cache.get(spec) is None          # corrupt → miss, not crash
    path.write_text(json.dumps({"format_version": -1}))
    assert cache.get(spec) is None          # stale format → miss

    cache.put(spec, outcome)
    assert cache.clear() == 1 and len(cache) == 0


def test_cache_write_is_atomic_and_truncation_quarantines(tmp_path):
    """A document truncated mid-entry (a torn write that somehow landed,
    or on-disk corruption) is quarantined on read and reported as a
    miss, and the recompute overwrites it cleanly."""
    cache = ResultCache(tmp_path / "cache")
    spec = CampaignSpec(deployment="Az-Func", iterations=2, warmup=0,
                        seed=13)
    outcome = execute_spec(spec)
    path = cache.put(spec, outcome)
    # The atomic write left no staging files behind the published name.
    assert not list(path.parent.glob(".*.tmp"))

    intact = path.read_text()
    path.write_text(intact[:len(intact) // 2])   # truncate mid-payload
    assert cache.get(spec) is None
    quarantined = list((cache.root / "quarantine").glob("*.corrupt"))
    assert len(quarantined) == 1 and not path.exists()

    cache.put(spec, outcome)                     # recompute-and-overwrite
    assert outcome_blob(cache.get(spec)) == outcome_blob(outcome)


def test_cache_checksum_mismatch_is_a_miss(tmp_path):
    """Valid JSON whose payload disagrees with its checksum (bit rot)
    is quarantined, not replayed."""
    cache = ResultCache(tmp_path / "cache")
    spec = CampaignSpec(deployment="Az-Func", iterations=2, warmup=0,
                        seed=13)
    path = cache.put(spec, execute_spec(spec))
    document = json.loads(path.read_text())
    document["outcome"]["idle_transactions"] = 10**9
    path.write_text(json.dumps(document, default=repr))
    assert cache.get(spec) is None
    assert list((cache.root / "quarantine").glob("*.corrupt"))


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_cache_non_object_json_is_quarantined(tmp_path, text):
    """A document, or a checksummed outcome payload, that is valid JSON
    but not an object is corrupt: quarantined and a miss, not a crash."""
    from repro.core.persistence import payload_checksum

    cache = ResultCache(tmp_path / "cache")
    spec = CampaignSpec(deployment="Az-Func", iterations=2, warmup=0,
                        seed=13)
    outcome = execute_spec(spec)
    path = cache.put(spec, outcome)
    path.write_text(text)
    assert cache.get(spec) is None
    assert not path.exists()
    assert list((cache.root / "quarantine").glob("*.corrupt"))

    path = cache.put(spec, outcome)
    document = json.loads(path.read_text())
    document["outcome"] = json.loads(text)
    document["checksum"] = payload_checksum(document["outcome"])
    path.write_text(json.dumps(document))
    assert cache.get(spec) is None
    assert not path.exists()


def test_cache_document_filed_under_another_key_is_quarantined(tmp_path):
    """A valid document copied to another spec's path is not that
    spec's result: it is quarantined and reported as a miss instead of
    serving the first spec's data under the second spec's name."""
    cache = ResultCache(tmp_path / "cache")
    first = CampaignSpec(deployment="AWS-Step", iterations=2, warmup=0,
                         seed=1)
    second = CampaignSpec(deployment="AWS-Step", iterations=2, warmup=0,
                          seed=2)
    misfiled = cache.path_for(second)
    misfiled.write_text(cache.put(first, execute_spec(first)).read_text())

    assert cache.get(second) is None
    assert not misfiled.exists()
    assert list((cache.root / "quarantine").glob("*.corrupt"))
    assert cache.get(first) is not None


def test_cache_format_2_document_is_a_miss(tmp_path):
    """A document written before documents recorded their key reads as
    a miss, and the recompute overwrites it."""
    from repro.core.persistence import outcome_to_dict, payload_checksum

    cache = ResultCache(tmp_path / "cache")
    spec = CampaignSpec(deployment="Az-Func", iterations=2, warmup=0,
                        seed=13)
    outcome = execute_spec(spec)
    payload = outcome_to_dict(outcome)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({
        "format_version": 2, "kind": "campaign-cache",
        "spec": spec.canonical(), "checksum": payload_checksum(payload),
        "outcome": payload}, default=repr))

    assert cache.get(spec) is None
    cache.put(spec, outcome)
    assert outcome_blob(cache.get(spec)) == outcome_blob(outcome)


def test_pool_surfaces_worker_failure_as_typed_spec_error(tmp_path):
    """A spec that raises in a worker fails the run with a typed error
    naming the failing spec — and the specs that completed are already
    cached, so a retry skips them."""
    from repro.core.parallel import SpecExecutionError

    good = CampaignSpec(deployment="AWS-Lambda", iterations=2, warmup=0,
                        seed=3)
    # Constructs fine, fails inside the worker: the stray kwarg only
    # explodes when the campaign invokes the deployment.
    bad = CampaignSpec(deployment="AWS-Lambda", iterations=1, warmup=0,
                       invoke_kwargs={"bogus_kwarg": 1})
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(SpecExecutionError) as excinfo:
        ParallelRunner(workers=2, cache=cache).run([good, bad])

    error = excinfo.value
    assert error.spec_hash == bad.spec_hash()
    assert bad.spec_hash()[:12] in str(error)
    assert "TypeError" in error.message
    assert error.traceback_text                  # worker traceback kept
    # Completed sibling was cached before the failure was raised.
    hit = cache.get(good)
    assert hit is not None
    assert outcome_blob(hit) == outcome_blob(execute_spec(good))


def test_serial_path_raises_same_typed_error():
    """One worker (a single worker process) fails with the same typed
    error as the two-worker sweep above."""
    from repro.core.parallel import SpecExecutionError

    bad = CampaignSpec(deployment="AWS-Lambda", iterations=1, warmup=0,
                       invoke_kwargs={"bogus_kwarg": 1})
    with pytest.raises(SpecExecutionError) as excinfo:
        ParallelRunner(workers=1).run([bad])
    assert excinfo.value.spec_hash == bad.spec_hash()


def test_cache_env_var_sets_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
    cache = ResultCache()
    assert cache.root == tmp_path / "env-root"
    assert "env-root" in repr(cache)


def test_runner_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        ParallelRunner(workers=0)


def test_run_campaigns_returns_campaigns_only():
    specs = [CampaignSpec(deployment="AWS-Lambda", iterations=2,
                          warmup=0, seed=2)]
    campaigns = ParallelRunner(workers=1).run_campaigns(specs)
    assert len(campaigns) == 1 and campaigns[0].latencies
