"""Tests for the supervised runner: crashes, stalls, timeouts, signals.

The supervised pool's contract is graceful degradation with bit-exact
recovery: SIGKILLed workers are replaced and the sweep's outcomes match
an undisturbed serial run; deterministic failures surface as typed
per-spec errors without discarding sibling work; SIGINT leaves a journal
holding every completed outcome, resumable to a bit-identical result.
Workers are long-lived: the launch-count tests pin down that a process
is started only when a spec needs one and replaced only when it is lost.

The chaos tests kill this test run's *own* worker processes (seeded, so
the kill schedule is reproducible); the SIGINT test drives a real
``python -m repro`` subprocess.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import (
    CampaignSpec,
    ChaosPlan,
    ParallelRunner,
    ResultCache,
    SpecTimeout,
    SupervisedRunner,
    SweepJournal,
    execute_spec,
)
from repro.core import supervise
from repro.core.parallel import SpecExecutionError
from repro.core.persistence import payload_checksum

from tests.core.test_parallel import outcome_blob

pytestmark = pytest.mark.supervise

REPO_ROOT = Path(__file__).resolve().parents[2]


def sweep_specs(count=3, seed=31):
    names = ["AWS-Lambda", "Az-Dorch", "AWS-Step", "Az-Func"]
    return [CampaignSpec(deployment=names[i % len(names)], iterations=2,
                         warmup=0, seed=seed + i)
            for i in range(count)]


def broken_spec(seed=0):
    """A spec that fails deterministically at execution time."""
    return CampaignSpec(deployment="AWS-Lambda", iterations=1, warmup=0,
                        seed=seed, invoke_kwargs={"bogus_kwarg": 1})


def serial_blobs(specs):
    """Each spec's outcome executed in this process."""
    return [outcome_blob(execute_spec(spec)) for spec in specs]


def count_launches(monkeypatch):
    """Returns a list that grows by one entry per worker process the
    runner launches from now on."""
    launches = []
    launch = SupervisedRunner._launch

    def counting_launch(self, context, pool):
        launches.append(1)
        return launch(self, context, pool)

    monkeypatch.setattr(SupervisedRunner, "_launch", counting_launch)
    return launches


def count_calls(monkeypatch, owner, name):
    """Returns a list that grows by one entry per call of ``owner.name``
    from now on, wherever a ``repro`` module imported it by name."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counting)
        return calls
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def slow_worker_specs(monkeypatch, seconds, hang=()):
    """Make workers forked from now on take ``seconds`` per spec, and
    never finish the specs in ``hang``."""
    def slow_execute(spec):
        time.sleep(3600.0 if spec in hang else seconds)
        return execute_spec(spec)

    monkeypatch.setattr(supervise, "execute_spec", slow_execute)


# -- baseline: drop-in equivalence -----------------------------------------------

def test_supervised_pool_is_bit_identical_to_serial(tmp_path):
    specs = sweep_specs(3)
    reference = serial_blobs(specs)
    result = SupervisedRunner(workers=2).run(specs)
    assert result.ok and result.completed == result.outcomes
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference


def test_runner_validates_parameters():
    with pytest.raises(ValueError):
        SupervisedRunner(workers=0)
    with pytest.raises(ValueError):
        SupervisedRunner(spec_timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisedRunner(max_restarts=-1)
    with pytest.raises(ValueError):
        ChaosPlan(kill_probability=1.5)
    with pytest.raises(ValueError):
        ChaosPlan(kill_after_s=-1.0)


# -- typed failure taxonomy ------------------------------------------------------

def test_deterministic_failure_is_typed_and_spares_siblings(tmp_path):
    """A spec that raises fails once — no retry, it is deterministic —
    while its siblings complete, journal and cache as usual."""
    good = sweep_specs(1)[0]
    specs = [broken_spec(), good]
    cache = ResultCache(tmp_path / "cache")
    journal = SweepJournal(tmp_path / "j")
    result = SupervisedRunner(workers=2, cache=cache,
                              journal=journal).run(specs)

    assert not result.ok
    assert result.outcomes[0] is None
    assert outcome_blob(result.outcomes[1]) == serial_blobs([good])[0]

    [failure] = result.failures
    assert failure.index == 0
    assert failure.kind == "SpecExecutionError"
    assert failure.attempts == 1                 # deterministic: no retry
    assert specs[0].spec_hash()[:12] in str(failure)
    with pytest.raises(SpecExecutionError):
        result.raise_if_failed()

    # The completed sibling survived the failure in both stores.
    assert sorted(journal.completed(specs)) == [1]
    assert cache.get(good) is not None


def test_spec_timeout_kills_retries_then_fails_typed(tmp_path):
    """A wall-clock deadline the spec cannot meet burns the whole
    restart budget and surfaces as a SpecTimeout failure."""
    spec = CampaignSpec(deployment="Az-Dorch", iterations=40, warmup=0,
                        seed=3)
    runner = SupervisedRunner(workers=1, spec_timeout_s=0.01,
                              max_restarts=1, backoff_base_s=0.0,
                              stall_timeout_s=None)
    result = runner.run([spec])
    assert not result.ok and result.outcomes == [None]
    [failure] = result.failures
    assert failure.kind == "SpecTimeout"
    assert failure.attempts == 2                 # first try + one restart
    assert isinstance(failure.error, SpecTimeout)
    assert spec.spec_hash()[:12] in str(failure.error)


# -- in-process degradation ------------------------------------------------------

def test_first_launch_failure_degrades_inline_without_losing_specs(
        monkeypatch, tmp_path):
    """When the very first worker launch fails (sandboxed interpreter),
    the runner degrades to in-process execution — including the spec
    whose launch attempt triggered the degradation.  Regression: that
    spec was popped from the queue and lost, leaving a silent None hole
    in an ok PartialSweepResult."""
    specs = sweep_specs(3)
    reference = serial_blobs(specs)

    def refuse_to_spawn(self, context, pool):
        raise OSError("process spawning forbidden")

    monkeypatch.setattr(SupervisedRunner, "_launch", refuse_to_spawn)
    journal = SweepJournal(tmp_path / "j")
    result = SupervisedRunner(workers=2, journal=journal).run(specs)

    assert result.ok, [str(failure) for failure in result.failures]
    assert all(outcome is not None for outcome in result.outcomes)
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference
    assert journal.is_complete()


def test_drain_reports_discarded_error_messages(capsys):
    """An ('error', ...) message sitting in a worker pipe at interrupt
    time is deterministic — resume will only reproduce it — so the
    drain reports the broken spec to stderr instead of silently
    dropping the message."""
    import multiprocessing

    from repro.core.supervise import _Task, _Worker

    class _DoneProcess:
        def is_alive(self):
            return False

        def join(self, timeout=None):
            pass

    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    child_conn.send(("error", "ValueError: boom", "traceback"))
    child_conn.close()
    spec = broken_spec()
    worker = _Worker(_DoneProcess(), parent_conn, heartbeat=None)
    worker.task = _Task(0, spec)

    outcomes = [None]
    SupervisedRunner(workers=1)._drain_and_stop([worker], outcomes)

    stderr = capsys.readouterr().err
    assert spec.spec_hash()[:12] in stderr
    assert "fail again on resume" in stderr
    assert "ValueError: boom" in stderr
    assert outcomes == [None]


# -- long-lived workers: what launches a process ---------------------------------

def test_clean_sweep_launches_one_process_per_worker(monkeypatch):
    """More specs than workers: each worker serves several specs."""
    specs = sweep_specs(6)
    launches = count_launches(monkeypatch)
    result = SupervisedRunner(workers=2).run(specs)
    assert result.ok
    assert len(launches) == 2
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        serial_blobs(specs)


def test_fewer_specs_than_workers_launch_one_process_per_spec(
        monkeypatch):
    launches = count_launches(monkeypatch)
    assert ParallelRunner(workers=4).run(sweep_specs(2))
    assert len(launches) == 2


def test_deterministic_failure_keeps_its_worker(monkeypatch):
    """A spec that raises costs no process: the same worker serves the
    specs after it."""
    good = sweep_specs(2)
    specs = [broken_spec(), *good]
    launches = count_launches(monkeypatch)
    result = SupervisedRunner(workers=1).run(specs)
    assert len(launches) == 1
    assert [failure.index for failure in result.failures] == [0]
    assert [outcome_blob(outcome) for outcome in result.outcomes[1:]] == \
        serial_blobs(good)


def test_chaos_kill_launches_one_replacement_per_kill(monkeypatch):
    """Every first attempt is SIGKILLed: the sweep launches its two
    workers plus one replacement per kill, and still matches the serial
    outcomes bit for bit."""
    specs = sweep_specs(3, seed=53)
    reference = serial_blobs(specs)
    # Slow enough that each kill lands before its spec could finish.
    slow_worker_specs(monkeypatch, seconds=0.3)
    launches = count_launches(monkeypatch)
    chaos = ChaosPlan(kill_probability=1.0, kill_after_s=0.0,
                      max_kills_per_spec=1, seed=5)
    result = SupervisedRunner(workers=2, chaos=chaos, max_restarts=2,
                              backoff_base_s=0.0,
                              poll_interval_s=0.01).run(specs)
    assert result.ok, [str(failure) for failure in result.failures]
    assert len(launches) == 2 + len(specs)
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference


def test_timed_out_worker_is_replaced_for_the_later_specs(monkeypatch):
    """A spec that hangs past its deadline takes its worker with it; the
    replacement completes the specs after it bit-identically."""
    later = sweep_specs(3, seed=61)
    stuck = sweep_specs(1, seed=7)[0]
    slow_worker_specs(monkeypatch, seconds=0.0, hang=(stuck,))
    launches = count_launches(monkeypatch)
    result = SupervisedRunner(workers=1, spec_timeout_s=1.0,
                              max_restarts=0,
                              poll_interval_s=0.01).run([stuck, *later])
    [failure] = result.failures
    assert failure.index == 0 and failure.kind == "SpecTimeout"
    assert len(launches) == 2
    assert [outcome_blob(outcome) for outcome in result.outcomes[1:]] == \
        serial_blobs(later)


def test_sweep_served_from_cache_or_journal_launches_nothing(
        monkeypatch, tmp_path):
    specs = sweep_specs(3)
    cache = ResultCache(tmp_path / "cache")
    journal = SweepJournal(tmp_path / "j")
    SupervisedRunner(workers=2, cache=cache, journal=journal).run(specs)
    launches = count_launches(monkeypatch)

    replay = ParallelRunner(workers=2, cache=cache).run(specs)
    resumed = SupervisedRunner(workers=2, journal=journal).resume()
    assert launches == []
    assert all(outcome.cached for outcome in replay)
    assert resumed.ok and all(outcome.cached
                              for outcome in resumed.outcomes)


def test_workers_inherit_the_pipeline_the_supervisor_trained(
        monkeypatch, tmp_path):
    """The supervisor trains each ML workload before it forks, so no
    worker trains its own copy.  The workload memo is process-wide, so
    the test empties it: this sweep's pipeline starts untrained whatever
    ran earlier in this process."""
    from repro.core.deployments import ml
    from repro.workloads.ml import pipeline

    trainers = tmp_path / "trainers"
    train = pipeline.run_training_pipeline

    def logged_train(*args, **kwargs):
        with open(trainers, "a") as log:
            log.write(f"{os.getpid()}\n")
        return train(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_training_pipeline", logged_train)
    monkeypatch.setattr(ml, "_WORKLOADS", {})
    result = SupervisedRunner(workers=2).run(sweep_specs(6))
    assert result.ok
    assert trainers.read_text().split() == [str(os.getpid())]


# -- bookkeeping: one key derivation and one encoding per spec -------------------

def test_sweep_derives_keys_once_and_encodes_each_outcome_once(
        monkeypatch, tmp_path):
    """A cold journaled pass hashes each distinct calibration once and
    encodes each computed outcome once; a warm pass over its cache
    encodes nothing; resuming the complete journal into an empty cache
    copies documents instead of encoding them."""
    from repro.core import persistence

    override_sets = ({}, {"azure.scale_interval_s": 10.0})
    specs = [CampaignSpec(deployment="Az-Dorch", iterations=2, warmup=0,
                          seed=71 + i,
                          calibration_overrides=override_sets[i % 2])
             for i in range(4)]
    overrides = len(override_sets)
    reference = serial_blobs(specs)
    hashes = count_calls(monkeypatch, CampaignSpec, "calibration_hash")
    encodes = count_calls(monkeypatch, persistence, "outcome_to_dict")
    cache = ResultCache(tmp_path / "cache")

    def sweep(journal, cache):
        hashes.clear()
        encodes.clear()
        result = SupervisedRunner(workers=2, cache=cache,
                                  journal=tmp_path / journal).run(specs)
        assert result.ok
        assert [outcome_blob(outcome) for outcome in result.outcomes] == \
            reference
        return len(hashes), len(encodes)

    # (calibration hashes, encodings) per sweep
    assert sweep("cold", cache) == (overrides, len(specs))
    assert sweep("warm", cache) == (overrides, 0)
    # Resume the complete cold journal into an empty cache.
    empty = ResultCache(tmp_path / "empty")
    assert sweep("cold", empty) == (overrides, 0)
    assert len(empty) == len(specs)


# -- self-chaos: SIGKILL recovery ------------------------------------------------

def test_chaos_sigkill_recovery_is_bit_identical(tmp_path):
    """Every spec's first attempt is SIGKILLed; the sweep still
    completes with outcomes bit-identical to the serial runner and a
    consistent, fully-checksummed journal."""
    specs = sweep_specs(3, seed=47)
    reference = serial_blobs(specs)

    journal = SweepJournal(tmp_path / "j")
    chaos = ChaosPlan(kill_probability=1.0, kill_after_s=0.0,
                      max_kills_per_spec=1, seed=5)
    runner = SupervisedRunner(workers=2, journal=journal, chaos=chaos,
                              max_restarts=2, backoff_base_s=0.0)
    result = runner.run(specs)

    assert result.ok, [str(failure) for failure in result.failures]
    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        reference
    # Journal consistency: complete, checksum-verified, no quarantine.
    assert journal.is_complete()
    assert not list((journal.entries.root / "quarantine").glob("*"))
    assert [outcome_blob(outcome) for outcome in journal.outcomes()] == \
        reference


def test_chaos_kill_schedule_is_seeded():
    plan = ChaosPlan(kill_probability=0.5, seed=9, max_kills_per_spec=3)
    first = [plan.should_kill(i, 1, 0) for i in range(32)]
    assert first == [plan.should_kill(i, 1, 0) for i in range(32)]
    assert any(first) and not all(first)
    assert not plan.should_kill(0, 1, 3)         # kill budget spent


# -- whole-process SIGINT --------------------------------------------------------

def _journal_entries(journal_root: Path):
    return sorted((journal_root / "entries").glob("*.json"))


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigint_flushes_journal_and_resume_is_bit_identical(tmp_path):
    """Ctrl-C mid-sweep: the process exits 130, every journal entry is
    intact (no torn writes), and resuming merges to the same outcomes
    an uninterrupted run produces."""
    journal_root = tmp_path / "journal"
    command = [sys.executable, "-m", "repro", "latency",
               "--iterations", "200", "--variants",
               "AWS-Lambda,AWS-Step,Az-Func,Az-Queue,Az-Dorch,Az-Dent",
               "--journal", str(journal_root), "--no-cache", "-j", "2"]
    env = dict(os.environ,
               PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(tmp_path / "unused-cache"))
    process = subprocess.Popen(command, cwd=str(REPO_ROOT), env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    try:
        # Wait until some progress is journaled, then interrupt.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            if len(_journal_entries(journal_root)) >= 1:
                break
            time.sleep(0.05)
        assert process.poll() is None, \
            f"sweep finished before it could be interrupted:\n" \
            f"{process.communicate()[1]}"
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()

    assert process.returncode == 130, (stdout, stderr)
    assert "repro resume" in stderr

    # No torn entries: every journal file parses and self-checksums.
    entries = _journal_entries(journal_root)
    assert entries, "SIGINT flushed nothing to the journal"
    for path in entries:
        document = json.loads(path.read_text())
        assert document["checksum"] == \
            payload_checksum(document["outcome"])

    # Resume re-runs only the missing specs; merged outcomes match an
    # uninterrupted serial run bit for bit.
    journal = SweepJournal(journal_root)
    specs = journal.open().specs()
    done_before = set(journal.completed(specs))
    result = SupervisedRunner(workers=2, journal=journal).resume()
    assert result.ok
    assert journal.is_complete()
    assert not list((journal.entries.root / "quarantine").glob("*"))
    assert {index for index, outcome in enumerate(result.outcomes)
            if outcome.cached} >= done_before

    assert [outcome_blob(outcome) for outcome in result.outcomes] == \
        serial_blobs(specs)
