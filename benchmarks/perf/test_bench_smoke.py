"""Smoke test of the laboratory benchmark at ``--quick`` size.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (not part
of the tier-1 suite, whose ``testpaths`` is ``tests/``).  Two quick
traced runs of every workload must each print every metric with its
unit, agree traced with untraced, and repeat every deterministic
counter exactly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE / "bench.py"
BENCHMARK = HERE.parent.parent / "BENCHMARK.json"

WORKLOADS = ("paper-figures", "overload-sweep", "audited-chaos",
             "journaled-sweep")
END_TO_END = {"setup_s": "s", "wall_s": "s", "replay_wall_s": "s",
              "peak_rss_mb": "MB", "ops_failed_frac": "ratio"}
_SECONDS = (
    "setup.import_s", "setup.ml_train_s", "setup.video_build_s",
    "sim.self_s", "aws.self_s", "azure.self_s", "gcp.self_s",
    "deployments.self_s", "campaign.self_s", "storage.self_s",
    "telemetry.self_s", "workloads.self_s", "audit.self_s",
    "audit.finalize_s", "faults.self_s", "mitigation.self_s",
    "persistence.encode_s", "persistence.decode_s", "cache.get_s",
    "cache.put_s", "checkpoint.record_s", "trace.wall_s")
_COUNTS = (
    "sim.events", "sim.processes", "aws.calls", "azure.calls", "gcp.calls",
    "storage.table.partition_reads", "storage.table.rows_scanned",
    "storage.blob.ops", "storage.queue.ops", "storage.meter.records",
    "telemetry.spans", "telemetry.find_calls", "telemetry.find_scanned",
    "workloads.detect_frames", "audit.monitor_calls", "faults.calls",
    "mitigation.calls", "cache.hits", "cache.misses", "checkpoint.records")
PER_LAYER = {**dict.fromkeys(_SECONDS, "s"), **dict.fromkeys(_COUNTS, "count"),
             "sim.us_per_event": "us", "sim.simulated_s": "sim_s",
             "cache.bytes": "B", "trace.overhead_frac": "ratio"}
JOURNALED_ONLY = {"supervise.serial_ref_s": "s", "supervise.speedup": "x",
                  "supervise.children_cpu_s": "s"}


def _bench(*args: str) -> str:
    completed = subprocess.run([sys.executable, str(BENCH), *args],
                               capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout


def _printed_units(stdout: str) -> dict:
    """``{workload: {metric: unit}}`` from the human-readable blocks."""
    blocks = {}
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = blocks.setdefault(line[3:].split(":")[0], {})
        elif line.startswith("  ") and len(line.split()) == 3:
            name, _, unit = line.split()
            current[name] = unit
    return blocks


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("perf") / "runs.jsonl"
    outputs = [_bench("--quick", "--seed", "0", "--trace", "--json",
                      str(path)) for _ in range(2)]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return records, outputs, path


def test_every_metric_is_printed_with_its_unit(runs):
    _, outputs, _ = runs
    printed = _printed_units(outputs[0])
    assert set(printed) == set(WORKLOADS)
    for workload in WORKLOADS:
        expected = {**END_TO_END, **PER_LAYER}
        if workload == "journaled-sweep":
            expected.update(JOURNALED_ONLY)
        wrong = {name: printed[workload].get(name)
                 for name, unit in expected.items()
                 if printed[workload].get(name) != unit}
        assert not wrong, (workload, wrong)


def test_layers_account_for_the_traced_wall_time(runs):
    for workload in WORKLOADS:
        layers = runs[0][0]["workloads"][workload]["layers"]
        attributed = layers["trace.wall_s"] - layers["trace.unattributed_s"]
        assert attributed >= 0.95 * layers["trace.wall_s"]


def test_traced_and_untraced_outcomes_agree(runs):
    for run in runs[0]:
        for workload in WORKLOADS:
            record = run["workloads"][workload]
            assert record["correct"], record["failures"]
            assert record["failed"] == 0
            assert record["metrics"]["ops_failed_frac"] == 0.0


def test_deterministic_counters_repeat_exactly(runs):
    first, second = runs[0]
    for workload in WORKLOADS:
        assert (first["workloads"][workload]["counters"]
                == second["workloads"][workload]["counters"])


def test_result_line_names_the_benchmark_metrics():
    spec = json.loads(BENCHMARK.read_text())
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        stdout = _bench("--workload", "journaled-sweep", "--quick",
                        "--seed", "0", "--seconds", "0", "--trace", trace)
        result = json.loads(stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"] == {
            metric["name"]: {"value": result["metrics"][metric["name"]]
                             ["value"], "unit": metric["unit"]}
            for metric in spec[section]}


def test_compare_reads_the_runs(runs):
    path = runs[2]
    stdout = _bench("compare", str(path), str(path))
    assert "unresolved" in stdout
    assert "changed" not in stdout
