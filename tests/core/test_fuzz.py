"""The campaign fuzzer: generation, differential checking, shrinking,
corpus replay — and the planted-bug acceptance demo (found → shrunk →
replayed red → replayed green after the fix)."""

import json

import pytest

from repro.core.fuzz import (
    PLANT_ENV,
    FuzzVerdict,
    PathResult,
    SpecGenerator,
    check_spec,
    expected_violation,
    planted_bug_active,
    read_repro,
    replay_corpus,
    repro_filename,
    run_fuzz,
    shrink,
    write_repro,
)
from repro.core.audit import spec_repro_hint
from repro.core.parallel import WORKLOAD_VARIANTS, CampaignSpec
from repro.core.persistence import spec_from_dict, spec_to_dict

from tests.core.test_supervise import count_launches

pytestmark = pytest.mark.fuzz

#: Seed-0 stream index of a dedupe-off-under-duplication spec — the
#: planted bug's trigger (asserted below, so a generator change that
#: moves it fails loudly here, not in CI's smoke run).
PLANTED_INDEX = 10
#: Budget that covers PLANTED_INDEX with a couple of specs to spare.
PLANTED_BUDGET = 12


@pytest.fixture()
def plant(monkeypatch):
    monkeypatch.setenv(PLANT_ENV, "dedupe")


# -- generation --------------------------------------------------------------------


def test_generator_is_reproducible_from_seed():
    first = SpecGenerator(7).specs(30)
    second = SpecGenerator(7).specs(30)
    assert first == second
    assert SpecGenerator(8).specs(30) != first


def test_draw_is_reproducible_from_seed_and_index():
    generator = SpecGenerator(7)
    assert generator.draw(13) == SpecGenerator(7).draw(13)


def test_generated_specs_are_valid_and_diverse():
    specs = SpecGenerator(0).specs(60)
    campaigns = {spec.campaign for spec in specs}
    workloads = {spec.workload for spec in specs}
    assert campaigns == {"latency", "coldstart", "fanout", "reliability",
                         "overload", "resilience"}
    assert workloads == {"ml-training", "ml-inference", "video"}
    for spec in specs:
        assert spec.deployment in WORKLOAD_VARIANTS[spec.workload]
        assert spec.audit is True
        # every draw round-trips exactly through persistence
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_deep_combos_are_reachable():
    specs = SpecGenerator(0).specs(120)
    assert any(expected_violation(spec) for spec in specs)
    assert any(dict(spec.fault_plan).get("outage_windows")
               for spec in specs)
    assert any(spec.mitigation for spec in specs)
    assert any(spec.calibration_overrides for spec in specs)


def test_intolerant_campaigns_never_draw_run_killing_faults():
    """run_campaign aborts on a failed run by design; the generator must
    not pair it with faults that kill whole invocations."""
    for spec in SpecGenerator(0).specs(150):
        if spec.campaign in ("latency", "coldstart", "fanout"):
            plan = dict(spec.fault_plan)
            assert "crash_probability" not in plan
            assert "error_probability" not in plan
            assert "outage_windows" not in plan
            # A 4x straggler pushes the longest functions past GCP's
            # 540 s ceiling — run-killing for campaigns that abort on
            # a failed run.
            assert plan.get("straggler_factor", 2.0) == 2.0


def test_partition_drops_only_pair_with_resilience():
    """A partition-dropped message is lost for good; only the resilience
    executor's hard request timeout backstops a run stranded on one —
    reliability and overload would wait forever."""
    seen = 0
    for seed in range(3):
        for spec in SpecGenerator(seed).specs(100):
            if "partition_drop_probability" in dict(spec.fault_plan):
                assert spec.campaign == "resilience"
                seen += 1
    assert seen > 0   # the gate must not silence the feature entirely


def test_planted_index_is_where_we_think(plant):
    generator = SpecGenerator(0)
    assert planted_bug_active(generator.draw(PLANTED_INDEX))
    assert PLANTED_INDEX < PLANTED_BUDGET


def test_plant_is_inert_without_the_env():
    assert not planted_bug_active(SpecGenerator(0).draw(PLANTED_INDEX))


# -- the differential oracle -------------------------------------------------------


def test_clean_spec_checks_ok_on_every_path():
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1, warmup=0)
    verdict = check_spec(spec)
    assert verdict.ok
    paths = {result.path for result in verdict.paths}
    assert paths == {"serial", "pool", "cache", "persistence"}
    checksums = {result.checksum for result in verdict.paths}
    assert len(checksums) == 1       # bit-identical on every path


def test_pool_path_crosses_a_process_boundary(monkeypatch):
    """Without a session's observation, the pool path runs the spec in
    exactly one worker process; given one, it launches none."""
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1, warmup=0)
    launches = count_launches(monkeypatch)
    verdict = check_spec(spec)
    assert verdict.ok and len(launches) == 1

    [pool] = [result for result in verdict.paths if result.path == "pool"]
    assert check_spec(spec, pool=pool).ok
    assert len(launches) == 1


def test_session_runs_each_spec_once_in_a_worker(monkeypatch):
    """The session's supervised outcomes are the pool path: a clean
    session launches its one worker and nothing per spec."""
    launches = count_launches(monkeypatch)
    result = run_fuzz(seed=1, budget=4)
    assert result.ok and result.executed == 4
    assert len(launches) == 1


def test_pool_observation_that_differs_is_a_finding():
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1, warmup=0)
    verdict = check_spec(spec, pool=PathResult("pool", checksum="0" * 64))
    assert verdict.findings == ("divergence:serial-vs-pool",)


def test_expected_violation_is_not_a_finding():
    """Dedupe-off under duplication trips the auditor *by design*; an
    identical-on-every-path violation is the lab working, not a bug."""
    spec = SpecGenerator(0).draw(PLANTED_INDEX)
    assert expected_violation(spec)
    verdict = check_spec(spec)
    assert verdict.ok, verdict.findings


def test_planted_bug_breaks_path_parity(plant):
    spec = SpecGenerator(0).draw(PLANTED_INDEX)
    verdict = check_spec(spec)
    assert not verdict.ok
    assert any(finding.startswith(("divergence:", "error-parity:"))
               for finding in verdict.findings)


def test_repro_hint_is_pasteable():
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1)
    hint = spec_repro_hint(spec)
    assert hint.endswith("python -m repro fuzz shrink -")
    blob = hint.split("echo '", 1)[1].split("' |", 1)[0]
    assert spec_from_dict(json.loads(blob)) == spec


# -- shrinking ---------------------------------------------------------------------


def test_shrink_preserves_fingerprint_and_minimizes(plant):
    spec = SpecGenerator(0).draw(PLANTED_INDEX)
    verdict = check_spec(spec)
    fingerprint = verdict.findings[0]
    minimal, spent = shrink(spec, fingerprint)
    assert spent > 0
    # still fails the same way ...
    assert fingerprint in check_spec(minimal).findings
    # ... on a spec no bigger than the original
    assert minimal.iterations <= spec.iterations
    assert len(minimal.fault_plan) <= len(spec.fault_plan)
    assert len(minimal.mitigation) <= len(spec.mitigation)
    # the trigger fields survived the shrink
    assert planted_bug_active(minimal)


def test_shrink_is_deterministic(plant):
    spec = SpecGenerator(0).draw(PLANTED_INDEX)
    fingerprint = check_spec(spec).findings[0]
    assert shrink(spec, fingerprint) == shrink(spec, fingerprint)


# -- corpus documents --------------------------------------------------------------


def test_repro_documents_round_trip_and_detect_tampering(tmp_path):
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1)
    path = tmp_path / repro_filename(spec, "crash:ValueError")
    write_repro(path, spec, "crash:ValueError", found={"seed": 0,
                                                       "index": 3})
    loaded, fingerprint, document = read_repro(path)
    assert loaded == spec
    assert fingerprint == "crash:ValueError"
    assert document["found"] == {"seed": 0, "index": 3}

    tampered = json.loads(path.read_text())
    tampered["spec"]["iterations"] = 99
    path.write_text(json.dumps(tampered))
    from repro.core.fuzz import FuzzError
    with pytest.raises(FuzzError, match="checksum"):
        read_repro(path)


# -- the acceptance demo: find, shrink, replay red, fix, replay green --------------


def test_planted_bug_found_shrunk_and_replayed(tmp_path, plant,
                                               monkeypatch):
    corpus = tmp_path / "corpus"
    result = run_fuzz(seed=0, budget=PLANTED_BUDGET, corpus_dir=corpus)
    assert result.executed == PLANTED_BUDGET
    assert not result.ok
    found = {verdict.index for verdict in result.findings}
    assert PLANTED_INDEX in found
    assert result.corpus_paths           # a shrunk reproducer landed
    for path in result.corpus_paths:
        minimal, fingerprint, _ = read_repro(path)
        assert planted_bug_active(minimal)

    # Replay while the bug is still in: every entry is red.
    red = replay_corpus(corpus)
    assert red and all(entry.reproduced for entry in red)

    # "Fix" the bug; the same corpus replays green.
    monkeypatch.delenv(PLANT_ENV)
    green = replay_corpus(corpus)
    assert green and not any(entry.reproduced for entry in green)
    assert not any(entry.error for entry in green)


def test_fuzz_session_is_deterministic(tmp_path, plant):
    corpora = []
    verdicts = []
    for run in ("a", "b"):
        corpus = tmp_path / run
        result = run_fuzz(seed=0, budget=PLANTED_BUDGET,
                          corpus_dir=corpus)
        corpora.append({path.name: path.read_bytes()
                        for path in sorted(corpus.iterdir())})
        verdicts.append([(verdict.index, verdict.spec_hash,
                          verdict.findings)
                         for verdict in result.verdicts])
    assert corpora[0] == corpora[1]
    assert verdicts[0] == verdicts[1]


def test_fuzz_session_journal_resumes(tmp_path):
    """A journaled session re-run with resume=True replays completed
    specs from the journal and reaches the same verdicts."""
    journal = tmp_path / "journal"
    first = run_fuzz(seed=1, budget=6, journal=journal,
                     time_budget_s=0.0)    # exhausted before any chunk
    assert first.exhausted and first.executed == 0

    second = run_fuzz(seed=1, budget=6, journal=journal, resume=True)
    assert second.executed == 6
    assert [verdict.ok for verdict in second.verdicts] == [True] * 6


def test_verdict_shape():
    verdict = check_spec(CampaignSpec(deployment="AWS-Lambda",
                                      workload="ml-training",
                                      iterations=1, warmup=0))
    assert isinstance(verdict, FuzzVerdict)
    assert verdict.spec_hash == verdict.spec.spec_hash()
    assert verdict.findings == ()
