"""Tests for the command-line interface."""

import pytest

from repro.cli import _variants, _worker_list, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_variants_parsing():
    assert _variants("AWS-Step, Az-Dorch") == ["AWS-Step", "Az-Dorch"]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError, match="unknown"):
        _variants("GCP-Functions")


def test_worker_list_parsing():
    assert _worker_list("1,5,10") == [1, 5, 10]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _worker_list("0,5")
    with pytest.raises(argparse.ArgumentTypeError):
        _worker_list("a,b")


def test_latency_command_runs(capsys):
    code = main(["latency", "--iterations", "2",
                 "--variants", "AWS-Lambda,AWS-Step"])
    assert code == 0
    output = capsys.readouterr().out
    assert "ML training latency" in output
    assert "AWS-Step" in output


def test_inference_command_runs(capsys):
    code = main(["inference", "--iterations", "2"])
    assert code == 0
    assert "ML inference latency" in capsys.readouterr().out


def test_coldstart_command_runs(capsys):
    code = main(["coldstart", "--days", "0.125"])   # 3 hourly requests
    assert code == 0
    output = capsys.readouterr().out
    assert "Cold start delay" in output
    assert "Az-Queue" in output


def test_video_command_runs(capsys):
    code = main(["video", "--workers", "4"])
    assert code == 0
    assert "Video processing latency" in capsys.readouterr().out


def test_cost_command_runs(capsys):
    code = main(["cost", "--workers", "4", "--runs-per-month", "10",
                 "--measured-runs", "2"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Monthly video cost" in output
    assert "tx share" in output


@pytest.mark.parametrize("argv", [
    [command, "--iterations", "0"]
    for command in ("latency", "inference", "reliability", "resilience",
                    "audit", "takeaways")
] + [
    ["cost", "--measured-runs", "0"],
    ["cost", "--workers", "0"],
    ["overload", "--horizon", "0"],
    ["audit", "--horizon", "0"],
    ["coldstart", "--days", "0"],
    ["coldstart", "--days", "0.01"],   # shorter than one hourly request
] + [
    # rejected by the FaultPlan, MitigationPolicy or CampaignSpec
    # constructor while the specs are built
    ["resilience", flag, value] for flag, value in (
        ("--outage-start", "-10"), ("--outage-duration", "-5"),
        ("--gray-factor", "0.5"), ("--brownout", "-1"),
        ("--hedge-after", "-1"), ("--breaker-threshold", "-1"),
        ("--breaker-timeout", "-1"), ("--deadline-factor", "-1"),
        ("--request-timeout", "0"), ("--slo-p99", "-1"))
] + [
    # rejected by the overridden calibration's validation
    ["overload", "--refill", "-1"],
    ["overload", "--shed-deadline", "-1"],
    ["cost", "--runs-per-month", "-3"],
], ids=" ".join)
def test_out_of_range_numbers_exit_before_any_campaign_runs(monkeypatch,
                                                           argv):
    from repro.core.supervise import SupervisedRunner

    def refuse(*args, **kwargs):
        pytest.fail("a campaign runner started")

    monkeypatch.setattr(SupervisedRunner, "run", refuse)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code not in (0, None)


def _table_rows(output):
    """The cells of each data row of the first table in ``output``."""
    lines = output.splitlines()
    start = next(index for index, line in enumerate(lines)
                 if line and set(line) <= set("-+")) + 1
    rows = []
    for line in lines[start:]:
        if not line.strip():
            break
        rows.append([cell.strip() for cell in line.split("|")])
    return rows


ORCHESTRATED = ["AWS-Step", "Az-Dorch", "GCP-Flows"]


def test_reliability_command_sweeps_every_variant(capsys):
    code = main(["reliability", "--iterations", "1", "--sweep", "0,0.2",
                 "--no-cache", "-j", "2"])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith(
        "Price of reliability (small, 1 iterations, 3 attempts)\n")
    assert [(row[0], float(row[1])) for row in _table_rows(output)] == [
        (name, probability) for probability in (0.0, 0.2)
        for name in ORCHESTRATED]
    for platform in ("aws", "azure", "gcp"):
        assert f"\n- {platform}: worst-case cost amplification" in output


def test_resilience_command_sweeps_every_variant(capsys):
    code = main(["resilience", "--iterations", "1", "--sweep", "30,90",
                 "--no-cache", "-j", "2"])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith("Resilience through a crash outage at "
                             "t=120s (SLO 99.9% avail)\n")
    assert [(row[0], float(row[1])) for row in _table_rows(output)] == [
        (name, duration) for duration in (30.0, 90.0)
        for name in ORCHESTRATED]
    for platform in ("aws", "azure", "gcp"):
        assert f"\n- {platform}: worst-case availability" in output


def test_overload_command_sweeps_every_variant(capsys):
    code = main(["overload", "--rates", "0.5,2", "--horizon", "20",
                 "--no-cache", "-j", "2"])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith(
        "Overload sweep (small, poisson arrivals, 20s horizon)\n")
    assert [(row[0], float(row[1])) for row in _table_rows(output)] == [
        (name, rate) for rate in (0.5, 2.0)
        for name in ("AWS-Step", "Az-Func", "GCP-Func")]
    for platform in ("aws", "azure", "gcp"):
        assert f"\n- {platform}: up to " in output


def test_audit_command_holds_every_invariant(capsys):
    from repro.core.audit import INVARIANTS

    code = main(["audit", "--iterations", "1", "--rates", "0.5",
                 "--horizon", "20", "--no-cache", "-j", "2"])
    output = capsys.readouterr().out
    assert code == 0
    assert output.startswith("Invariant audit: 12 campaigns "
                             "(3x3 reliability + 1x3 overload)\n")
    assert _table_rows(output) == [[name, "12", "0", "ok"]
                                   for name in INVARIANTS]
    assert output.endswith("\nall invariants held across the sweep\n")


def test_paper_command_runs_one_sweep(monkeypatch, capsys):
    """Its three tables come from one supervised sweep."""
    from repro.core.supervise import SupervisedRunner

    calls = []
    run = SupervisedRunner.run

    def counted(self, specs, **kwargs):
        calls.append(len(specs))
        return run(self, specs, **kwargs)

    monkeypatch.setattr(SupervisedRunner, "run", counted)
    assert main(["paper", "--no-cache", "-j", "2"]) == 0
    assert calls == [8 + 3 * 3 + 5]
    output = capsys.readouterr().out
    latency, video, coldstart = output.split("\n\n")[1:]
    assert latency.startswith("ML training latency (small, 8 iterations)")
    assert [row[0] for row in _table_rows(latency)] == [
        "AWS-Lambda", "AWS-Step", "Az-Func", "Az-Queue", "Az-Dorch",
        "Az-Dent", "GCP-Func", "GCP-Flows"]
    assert video.startswith("Video processing latency vs workers")
    assert [row[0] for row in _table_rows(video)] == ["1", "20", "80"]
    assert coldstart.startswith(
        "Cold start delay, median of 24 hourly requests")
    assert [line.split()[0] for line in coldstart.splitlines()[1:]] == [
        "Az-Queue", "AWS-Step", "Az-Dorch", "Az-Dent", "GCP-Flows"]


def test_seed_flag_changes_nothing_structural(capsys):
    assert main(["--seed", "5", "video", "--workers", "2"]) == 0


def test_takeaways_command_runs(capsys):
    code = main(["takeaways", "--iterations", "3"])
    output = capsys.readouterr().out
    assert "key takeaways reproduced" in output
    assert code == 0


# -- crash-safe sweeps: --journal and repro resume -------------------------------

def test_journal_flag_writes_resumable_journal(tmp_path, capsys):
    from repro.core import SweepJournal

    journal_root = tmp_path / "journal"
    code = main(["latency", "--iterations", "2",
                 "--variants", "AWS-Lambda,AWS-Step",
                 "--journal", str(journal_root),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert "ML training latency" in capsys.readouterr().out

    journal = SweepJournal(journal_root)
    assert journal.is_complete()
    manifest = journal.open()
    assert manifest.argv is not None
    assert "--journal" in manifest.argv

    # `repro resume` re-dispatches the recorded command; everything is
    # journaled already so it replays without recomputing.
    code = main(["resume", str(journal_root)])
    output = capsys.readouterr().out
    assert code == 0
    assert "resuming sweep" in output
    assert "ML training latency" in output


def test_journal_refuses_reuse_without_resume_flag(tmp_path, capsys):
    journal_root = tmp_path / "journal"
    argv = ["latency", "--iterations", "2", "--variants", "AWS-Lambda",
            "--journal", str(journal_root),
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="--resume"):
        main(argv)
    assert main(argv + ["--resume"]) == 0


def test_resume_rejects_missing_journal(tmp_path):
    with pytest.raises(SystemExit, match="no sweep journal"):
        main(["resume", str(tmp_path / "nope")])


def test_resume_of_old_format_journal_exits_with_the_journal_error(
        tmp_path):
    """A journal whose manifest predates the current format is refused
    with its JournalError and a re-run hint, not a traceback."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.core import CampaignSpec, SweepJournal

    journal = SweepJournal(tmp_path / "journal")
    journal.create([CampaignSpec(deployment="AWS-Lambda", iterations=2)],
                   argv=["latency", "--iterations", "2"])
    document = json.loads(journal.manifest_path.read_text())
    document["format_version"] = 1
    journal.manifest_path.write_text(json.dumps(document))

    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "resume", str(journal.root)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 1
    assert "repro: unsupported manifest format 1" in completed.stderr
    assert "re-run the sweep" in completed.stderr
    assert "Traceback" not in completed.stderr


def test_resume_flag_without_journal_errors():
    """--resume alone would otherwise be silently ignored and re-run
    the whole sweep uncheckpointed."""
    with pytest.raises(SystemExit, match="--journal"):
        main(["latency", "--iterations", "2", "--variants", "AWS-Lambda",
              "--resume", "--no-cache"])


def test_resume_supplies_journal_when_recorded_argv_lacks_one(
        tmp_path, capsys):
    """A journal whose recorded argv never named --journal (created
    programmatically) still resumes: `repro resume` injects the journal
    path the user pointed it at."""
    from repro.core import CampaignSpec, SupervisedRunner, SweepJournal

    journal_root = tmp_path / "journal"
    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        scale="small", iterations=2, warmup=1, seed=0)
    argv = ["latency", "--iterations", "2", "--variants", "AWS-Lambda",
            "--cache-dir", str(tmp_path / "cache")]
    result = SupervisedRunner(
        workers=1, journal=SweepJournal(journal_root)).run([spec],
                                                           argv=argv)
    assert result.ok

    code = main(["resume", str(journal_root)])
    output = capsys.readouterr().out
    assert code == 0
    assert "resuming sweep" in output
    assert "ML training latency" in output


def test_supervise_flags_run_the_supervised_pool(tmp_path, capsys):
    code = main(["latency", "--iterations", "2",
                 "--variants", "AWS-Lambda",
                 "--spec-timeout", "300", "--max-worker-restarts", "1",
                 "--no-cache"])
    assert code == 0
    assert "ML training latency" in capsys.readouterr().out


def test_failing_spec_without_supervise_flags_is_reported(monkeypatch,
                                                         capsys):
    """No --journal/--spec-timeout/--max-worker-restarts: a spec that
    raises in its worker still gets the per-spec report and exit 1,
    while its sibling completes."""
    from repro.core import supervise

    execute_spec = supervise.execute_spec

    def failing_on_lambda(spec):
        if spec.deployment == "AWS-Lambda":
            raise RuntimeError("campaign blew up")
        return execute_spec(spec)

    monkeypatch.setattr(supervise, "execute_spec", failing_on_lambda)
    with pytest.raises(SystemExit) as excinfo:
        main(["latency", "--iterations", "1",
              "--variants", "AWS-Lambda,AWS-Step", "--no-cache"])
    assert excinfo.value.code == 1
    stderr = capsys.readouterr().err
    assert "1 of 2 campaigns failed" in stderr
    assert "AWS-Lambda latency" in stderr
    assert "RuntimeError: campaign blew up" in stderr


def test_max_worker_restarts_defaults_to_two():
    args = build_parser().parse_args(["latency"])
    assert args.max_worker_restarts == 2
    args = build_parser().parse_args(["fuzz", "run"])
    assert args.max_worker_restarts == 2


@pytest.mark.fuzz
def test_fuzz_run_clean_session_exits_zero(tmp_path, capsys):
    code = main(["fuzz", "run", "--seed", "0", "--budget", "3",
                 "--corpus-out", str(tmp_path / "corpus"),
                 "--cache-dir", str(tmp_path / "cache")])
    output = capsys.readouterr().out
    assert code == 0
    assert "fuzz seed 0: 3/3 specs checked, 0 finding(s)" in output
    assert not (tmp_path / "corpus").exists()   # nothing to bank


@pytest.mark.fuzz
def test_fuzz_run_resume_flag_without_journal_errors():
    with pytest.raises(SystemExit, match="--journal"):
        main(["fuzz", "run", "--budget", "3", "--resume", "--no-cache"])


@pytest.mark.fuzz
def test_fuzz_replay_missing_corpus_is_a_noop(tmp_path, capsys):
    code = main(["fuzz", "replay", str(tmp_path / "nope")])
    assert code == 0
    assert "nothing to replay" in capsys.readouterr().out


@pytest.mark.fuzz
def test_fuzz_replay_shipped_corpus_stays_green(capsys):
    """The committed regression corpus must replay green: every bug the
    fuzzer has found stays fixed."""
    code = main(["fuzz", "replay", "corpus"])
    output = capsys.readouterr().out
    assert code == 0, output
    assert "RED" not in output and "INVALID" not in output


@pytest.mark.fuzz
def test_fuzz_shrink_clean_spec_reports_nothing_to_do(tmp_path, capsys):
    import json as json_mod

    from repro.core import CampaignSpec
    from repro.core.persistence import spec_to_dict

    spec = CampaignSpec(deployment="AWS-Lambda", workload="ml-training",
                        iterations=1, warmup=0)
    path = tmp_path / "spec.json"
    path.write_text(json_mod.dumps(spec_to_dict(spec)))
    code = main(["fuzz", "shrink", str(path)])
    assert code == 0
    assert "nothing to shrink" in capsys.readouterr().out


@pytest.mark.fuzz
def test_fuzz_shrink_rejects_bad_input(tmp_path):
    garbage = tmp_path / "bad.json"
    garbage.write_text("{not json")
    with pytest.raises(SystemExit, match="not JSON"):
        main(["fuzz", "shrink", str(garbage)])
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"deployment": "AWS-Lambda", "bogus": 1}')
    with pytest.raises(SystemExit, match="bogus"):
        main(["fuzz", "shrink", str(invalid)])
