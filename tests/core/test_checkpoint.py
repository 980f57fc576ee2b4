"""Tests for the sweep journal: atomic entries, quarantine, resume.

The journal's contract is that a killed sweep loses nothing it
completed and a resumed sweep is bit-identical to an uninterrupted one.
Corruption (torn writes, bit rot, entries from a different sweep) is
detected by checksum/manifest cross-checks, quarantined, and simply
recomputed.
"""

import json

import pytest

from repro.core import (
    CampaignSpec,
    JournalError,
    ParallelRunner,
    ResultCache,
    SupervisedRunner,
    SweepJournal,
    execute_spec,
)
from repro.core.cache import cache_key
from repro.core.persistence import payload_checksum, spec_from_dict

from tests.core.test_parallel import outcome_blob


def sweep_specs(count=3, seed=17):
    names = ["AWS-Lambda", "Az-Func", "Az-Dorch", "AWS-Step", "Az-Queue"]
    return [CampaignSpec(deployment=names[i % len(names)], iterations=2,
                         warmup=0, seed=seed + i)
            for i in range(count)]


# -- manifest mechanics ----------------------------------------------------------

def test_manifest_round_trips_specs_hash_exact(tmp_path):
    specs = sweep_specs()
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs, argv=["latency", "--journal", "j"])

    manifest = journal.open()
    assert manifest.argv == ["latency", "--journal", "j"]
    assert manifest.keys == [cache_key(spec) for spec in specs]
    rebuilt = manifest.specs()
    assert rebuilt == specs
    assert [spec.spec_hash() for spec in rebuilt] == \
        [spec.spec_hash() for spec in specs]


def test_spec_from_dict_is_hash_exact():
    spec = CampaignSpec(deployment="Az-Dorch", workload="video",
                        campaign="fanout", fanout=3, batch=2,
                        seed=9, invoke_kwargs={"n_workers": 3},
                        calibration_overrides=[("azure.scale_interval_s",
                                                10.0)])
    clone = spec_from_dict(json.loads(json.dumps(spec.canonical())))
    assert clone == spec
    assert clone.spec_hash() == spec.spec_hash()
    assert cache_key(clone) == cache_key(spec)


def test_create_refuses_overwrite_and_open_requires_manifest(tmp_path):
    journal = SweepJournal(tmp_path / "j")
    with pytest.raises(JournalError):
        journal.open()                       # nothing there yet
    journal.create(sweep_specs())
    with pytest.raises(JournalError):
        journal.create(sweep_specs())        # already holds a manifest


def test_create_or_open_validates_the_sweep(tmp_path):
    specs = sweep_specs()
    journal = SweepJournal(tmp_path / "j")
    journal.create_or_open(specs)            # creates

    journal.create_or_open(specs)            # same sweep: fine
    with pytest.raises(JournalError):
        journal.create_or_open(specs, resume=False)   # explicit refusal
    with pytest.raises(JournalError):
        journal.create_or_open(sweep_specs(seed=99))  # different sweep


def test_manifest_rejects_foreign_documents(tmp_path):
    journal = SweepJournal(tmp_path / "j")
    journal.root.mkdir()
    journal.manifest_path.write_text(json.dumps({"kind": "something"}))
    with pytest.raises(JournalError):
        journal.open()
    journal.manifest_path.write_text("torn {")
    with pytest.raises(JournalError):
        journal.open()


# -- entries: record / completed / quarantine ------------------------------------

def test_record_and_completed_round_trip_bit_identical(tmp_path):
    specs = sweep_specs(2)
    outcomes = [execute_spec(spec) for spec in specs]
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs)
    for index, outcome in enumerate(outcomes):
        journal.record(index, outcome)

    assert journal.is_complete()
    assert "2/2" in journal.progress()
    replayed = journal.outcomes()
    for original, replay in zip(outcomes, replayed):
        assert replay.cached
        assert outcome_blob(replay) == outcome_blob(original)


def test_corrupt_entries_are_quarantined_not_fatal(tmp_path):
    specs = sweep_specs(3)
    outcomes = [execute_spec(spec) for spec in specs]
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs)
    paths = [journal.record(index, outcome)
             for index, outcome in enumerate(outcomes)]

    # Torn write: the file stops mid-document.
    paths[0].write_text(paths[0].read_text()[:40])
    # Bit rot: valid JSON whose payload no longer matches its checksum.
    document = json.loads(paths[1].read_text())
    document["outcome"]["idle_transactions"] = 10**6
    paths[1].write_text(json.dumps(document, default=repr))

    completed = journal.completed(specs)
    assert sorted(completed) == [2]          # only the intact entry
    quarantined = sorted(
        (journal.entries.root / "quarantine").glob("*.corrupt"))
    assert len(quarantined) == 2
    assert not paths[0].exists() and not paths[1].exists()

    with pytest.raises(JournalError):
        journal.outcomes()                   # incomplete now


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_non_object_entries_are_quarantined(tmp_path, text):
    """An entry, or a checksummed outcome payload, that is valid JSON but
    not an object is corrupt: quarantined and recomputed, not a crash."""
    specs = sweep_specs(3)
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs)
    paths = [journal.record(index, execute_spec(spec))
             for index, spec in enumerate(specs)]
    paths[0].write_text(text)
    document = json.loads(paths[1].read_text())
    document["outcome"] = json.loads(text)
    document["checksum"] = payload_checksum(document["outcome"])
    paths[1].write_text(json.dumps(document))

    assert sorted(journal.completed(specs)) == [2]
    assert len(list(
        (journal.entries.root / "quarantine").glob("*.corrupt"))) == 2


@pytest.mark.parametrize("text", ["[]", '"x"', "3"])
def test_non_object_manifest_is_a_journal_error(tmp_path, text):
    from repro.cli import main

    journal = SweepJournal(tmp_path / "j")
    journal.create(sweep_specs(1))
    journal.manifest_path.write_text(text)
    with pytest.raises(JournalError, match="not a sweep manifest"):
        journal.open()
    with pytest.raises(SystemExit, match="not a sweep manifest"):
        main(["resume", str(journal.root)])


def test_entry_from_another_sweep_is_rejected(tmp_path):
    specs = sweep_specs(2)
    other = sweep_specs(2, seed=99)
    outcomes = [execute_spec(spec) for spec in other]
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs)
    # A structurally valid, checksum-valid entry — for the wrong sweep.
    foreign = SweepJournal(tmp_path / "other")
    foreign.create(other)
    path = foreign.record(0, outcomes[0])
    target = journal.entries.path_for(specs[0])
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(path.read_text())

    assert journal.completed(specs) == {}
    assert list((journal.entries.root / "quarantine").glob("*.corrupt"))


def test_entry_checksum_survives_json_round_trip(tmp_path):
    spec = sweep_specs(1)[0]
    outcome = execute_spec(spec)
    journal = SweepJournal(tmp_path / "j")
    journal.create([spec])
    path = journal.record(0, outcome)
    document = json.loads(path.read_text())
    assert document["checksum"] == payload_checksum(document["outcome"])


# -- resume bit-identity across execution paths ----------------------------------

def test_resumed_sweep_is_bit_identical_across_paths(tmp_path):
    """A partially journaled sweep, finished by resume, matches the
    serial runner, the worker pool, and a cache replay bit for bit."""
    specs = sweep_specs(4)
    reference = [outcome_blob(execute_spec(spec)) for spec in specs]

    # Simulate an interrupted sweep: only half the entries made it.
    journal = SweepJournal(tmp_path / "j")
    journal.create(specs)
    head = [execute_spec(spec) for spec in specs[:2]]
    for index, outcome in enumerate(head):
        journal.record(index, outcome)

    # Resume through the supervised pool, journal and cache engaged.
    cache = ResultCache(tmp_path / "cache")
    runner = SupervisedRunner(workers=2, cache=cache, journal=journal)
    result = runner.resume()
    assert result.ok
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference
    # Journaled half replayed, missing half computed fresh.
    assert [outcome.cached for outcome in result.outcomes[:2]] == \
        [True, True]

    # The journal now replays the whole sweep bit-identically ...
    assert [outcome_blob(outcome) for outcome in journal.outcomes()] == \
        reference
    # ... and so does the cache the resume populated.
    replay = ParallelRunner(workers=1, cache=cache).run(specs)
    assert all(outcome.cached for outcome in replay)
    assert [outcome_blob(outcome) for outcome in replay] == reference


def test_cache_hits_are_journaled_on_resume(tmp_path):
    """Outcomes satisfied by the result cache still land in the journal,
    so a later resume needs neither the cache nor a recompute."""
    specs = sweep_specs(2)
    cache = ResultCache(tmp_path / "cache")
    ParallelRunner(workers=1, cache=cache).run(specs)   # warm the cache

    journal = SweepJournal(tmp_path / "j")
    result = SupervisedRunner(workers=1, cache=cache,
                              journal=journal).run(specs)
    assert result.ok
    assert journal.is_complete()


def test_journal_of_cache_hits_survives_cache_clear(tmp_path, monkeypatch):
    """A sweep served wholly from the cache is journaled as documents of
    its own: after ``cache.clear()`` the journal still replays every
    outcome bit-identically, and resuming it recomputes nothing."""
    from repro.core import supervise

    specs = sweep_specs(3)
    reference = [outcome_blob(execute_spec(spec)) for spec in specs]
    cache = ResultCache(tmp_path / "cache")
    ParallelRunner(workers=1, cache=cache).run(specs)   # warm the cache

    journal = SweepJournal(tmp_path / "j")
    assert SupervisedRunner(workers=1, cache=cache,
                            journal=journal).run(specs).ok
    assert cache.clear() == len(specs)

    assert [outcome_blob(outcome) for outcome in journal.outcomes()] == \
        reference

    def no_recompute(spec):
        raise AssertionError(f"recomputed {spec.deployment}")

    monkeypatch.setattr(supervise, "execute_spec", no_recompute)
    resumed = SupervisedRunner(workers=1, cache=cache,
                               journal=journal).resume()
    assert resumed.ok and all(outcome.cached
                              for outcome in resumed.outcomes)
    assert [outcome_blob(outcome) for outcome in resumed.outcomes] == \
        reference
    assert len(cache) == len(specs)          # the resume refilled it
