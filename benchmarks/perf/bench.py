"""Laboratory benchmark: end-to-end wall-clock and a traced per-layer profile.

Run every workload, untraced, and print each end-to-end metric::

    PYTHONPATH=src python benchmarks/perf/bench.py --seed 0
    PYTHONPATH=src python benchmarks/perf/bench.py --seed 0 --trace
    PYTHONPATH=src python benchmarks/perf/bench.py --quick --seed 0

``--trace`` adds one separate traced run per workload and prints the
per-layer metrics.  ``--json FILE`` appends the run as one JSON line;
``compare PARENT.json CHANGE.json`` judges two such files of interleaved
runs.  ``pin`` rewrites ``digests.json`` from a ``--seed 0`` run.

One workload at a time, the form ``BENCHMARK.json``'s ``command`` takes
(the last line of stdout is the JSON result)::

    python benchmarks/perf/bench.py --workload overload-sweep --seed 3 \\
        --seconds 15 --trace 0

Every workload runs in fresh child processes (``child.py``), one at a
time: several set-up-only children give the median ``setup_s``, then one
child times the workload.  See README.md for the workloads, metrics and
layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
#: scratch space for children (the benchmark writes only inside the tree)
SCRATCH = ROOT / ".perfbench-tmp"

WORKLOADS = ("paper-figures", "overload-sweep", "audited-chaos",
             "journaled-sweep")
#: default measuring time per workload (BENCHMARK.json ``run_seconds``)
RUN_SECONDS = 15
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 5
#: the failure a spec records when only its ``digests.json`` pin differs
PIN_MISMATCH = "differs from digests.json"
#: wall-clock budget for all children of one workload run
RUN_BUDGET_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("replay_wall_s", "s"),
              ("peak_rss_mb", "MB"), ("ops_failed_frac", "ratio"))
UNITS = {"sim.us_per_event": "us", "sim.simulated_s": "sim_s",
         "cache.bytes": "B", "supervise.speedup": "x",
         "trace.overhead_frac": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to measuring a failure)."""


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- running children ---------------------------------------------------------


def _child(mode: str, workload: str, seed: int, seconds: float, quick: bool,
           scratch: Path, deadline: float) -> dict:
    out = Path(tempfile.mkstemp(dir=scratch, suffix=".json")[1])
    command = [sys.executable, str(CHILD), mode, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--out", str(out)] + (["--quick"] if quick else [])
    env = dict(os.environ, TMPDIR=str(scratch))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} child")
    with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as child:
        try:
            _, stderr = child.communicate(timeout=timeout)
        except BaseException as error:
            # SIGTERM first: the child's finally blocks reap its workers.
            child.terminate()
            try:
                child.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError(f"{workload}: {mode} child exceeded "
                                 f"{timeout:.0f}s") from error
            raise
    if child.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited "
                         f"{child.returncode}\n{stderr[-4000:]}")
    return json.loads(out.read_text())


def _combined(digests: List[Optional[str]]) -> str:
    return hashlib.sha256(
        "\n".join(str(item) for item in digests).encode()).hexdigest()


def _sections_wall(sections: dict, replays: int) -> float:
    """Wall seconds of the first pass, the cache fill, the serial
    reference and the first ``replays`` replays: the work a traced run
    does, so a traced and an untraced child compare like for like."""
    return (sections["passes"][0] + sections.get("fill", 0.0)
            + sections.get("serial_ref", 0.0)
            + sum(sections["replays"][:replays]))


def _pinned(workload: str, seed: int, quick: bool) -> Optional[dict]:
    if seed != 0 or quick or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def _layers(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics: the traced child's, plus the set-up and
    supervision figures of the untraced child (tracing would slow the
    serial reference the speedup divides), plus the tracer's own cost."""
    sections = untraced["sections"]
    layers = dict(traced["layers"])
    layers.update({key: value for key, value in untraced["setup"].items()
                   if key != "setup_s"})
    if "serial_ref" in sections:
        layers["supervise.serial_ref_s"] = sections["serial_ref"]
        layers["supervise.speedup"] = sections["serial_ref"] / sections["wall"]
        layers["supervise.children_cpu_s"] = sections["children_cpu"]
    replays = len(traced["sections"]["replays"])
    layers["trace.wall_s"] = _sections_wall(traced["sections"], replays)
    layers["trace.unattributed_s"] = layers["trace.wall_s"] - sum(
        value for name, value in traced["layers"].items()
        if name.endswith(".self_s"))
    layers["trace.overhead_frac"] = (
        layers["trace.wall_s"] / _sections_wall(sections, replays) - 1.0)
    return layers


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """Measure one workload in fresh children; returns its record."""
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    deadline = time.monotonic() + RUN_BUDGET_S

    def setup_only():
        return _child("setup", workload, seed, seconds, quick, scratch,
                      deadline)["setup"]

    try:
        # Set-up samples straddle the measuring child, so that one burst
        # of host noise cannot cover them all.
        before = (setup_samples - 1) // 2
        setups = [setup_only() for _ in range(before)]
        untraced = _child("run", workload, seed, seconds, quick, scratch,
                          deadline)
        setups += [setup_only() for _ in range(setup_samples - 1 - before)]
        traced = (_child("trace", workload, seed, seconds, quick, scratch,
                         deadline) if trace else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:     # another run is still using it
            pass
    setups.append(untraced["setup"])

    failures = {int(index): reason
                for index, reason in untraced["failures"].items()}
    digests = untraced["digests"]
    pinned = _pinned(workload, seed, quick)
    if pinned is not None:
        for index, expected in enumerate(pinned["per_spec"]):
            actual = digests[index] if index < len(digests) else None
            if actual is None or not actual.startswith(expected):
                failures.setdefault(index, PIN_MISMATCH)
    if traced is not None:
        for index, reason in traced["failures"].items():
            failures.setdefault(int(index), f"traced: {reason}")
        for index, (plain, probed) in enumerate(
                zip(digests, traced["digests"])):
            if plain != probed:
                failures.setdefault(index, "traced outcome differs")

    sections = untraced["sections"]
    attempted = untraced["specs"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sections["wall"],
        "replay_wall_s": min(sections["replays"]),
        "peak_rss_mb": sections["peak_rss_mb"],
        "ops_failed_frac": len(failures) / attempted,
    }
    record = {
        "workload": workload, "seed": seed, "quick": quick,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "metrics": metrics,
        "passes": len(sections["passes"]),
        "counters": {"digest": _combined(digests), "specs": attempted,
                     "failed": len(failures)},
        "digests": digests,
        "failures": {str(index): reason
                     for index, reason in sorted(failures.items())},
    }
    if pinned is not None:
        record["counters"]["pinned"] = pinned["digest"]
    if traced is not None:
        record["layers"] = _layers(untraced, traced)
        record["counters"].update(
            {name: value for name, value in record["layers"].items()
             if unit_of(name) in ("count", "B", "sim_s")})
    return record


# -- output -------------------------------------------------------------------


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1e5 else f"{value:.4g}"
    return str(value)


def print_record(record: dict, trace: bool) -> None:
    print(f"== {record['workload']}: {record['attempted']} specs "
          f"attempted, {record['failed']} failed, seed {record['seed']}"
          f"{' (quick)' if record['quick'] else ''}")
    for name, unit in END_TO_END:
        print(f"  {name:<34} {_format(record['metrics'][name]):>14} {unit}")
    print(f"  {'digest':<34} {record['counters']['digest'][:16]:>14}")
    for index, reason in record["failures"].items():
        print(f"  FAILED spec #{index}: {reason}")
    if trace and "layers" in record:
        layers = record["layers"]
        print("  -- per-layer (traced run)")
        for name in sorted(layers):
            print(f"  {name:<34} {_format(layers[name]):>14} "
                  f"{unit_of(name)}")
        share = (layers["trace.unattributed_s"] / layers["trace.wall_s"]
                 if layers["trace.wall_s"] else 0.0)
        print(f"  {'unattributed share of trace.wall_s':<34} "
              f"{share:>14.2%}")


def result_line(record: dict, trace: bool) -> dict:
    """The one-line JSON result over the metrics BENCHMARK.json names."""
    spec = json.loads(BENCHMARK.read_text())
    if trace:
        names = [(metric["name"], metric["unit"])
                 for metric in spec["per_layer"]]
        values = record["layers"]
    else:
        names = [(metric["name"], metric["unit"])
                 for metric in spec["end_to_end"]]
        values = record["metrics"]
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in names}}


# -- compare ------------------------------------------------------------------


def _load_runs(path: Path) -> List[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]


def verdict(parent: List[float], change: List[float], bound: float,
            higher_is_better: bool = False) -> dict:
    """Judge one metric over interleaved pairs (choosing-metrics §8)."""
    sign = -1.0 if higher_is_better else 1.0
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, _, p_q3 = (statistics.quantiles(parent, n=4) if pairs > 1
                     else (p_med, p_med, p_med))
    c_q1, _, c_q3 = (statistics.quantiles(change, n=4) if pairs > 1
                     else (c_med, c_med, c_med))
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    change_always_better = all(sign * (p - c) > 0
                               for p in parent for c in change)
    if pairs < 10:
        result = "unresolved"
    elif wins >= 0.9 * pairs and sign * (p_med - c_med) > p_q3 - p_q1:
        result = "improved"
    elif worse_by > bound:
        result = "worse"
    elif spread > bound and not change_always_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "won": wins / pairs, "verdict": result}


def compare(parent_path: Path, change_path: Path) -> int:
    """Judge the i-th run of CHANGE against the i-th run of PARENT."""
    spec = json.loads(BENCHMARK.read_text())
    pairs = list(zip(_load_runs(parent_path), _load_runs(change_path)))
    if len(pairs) < 10:
        print(f"only {len(pairs)} pairs: every verdict is unresolved "
              f"(at least 10 interleaved pairs are needed)")
    header = (f"{'workload':<16} {'metric':<14} {'parent q1/med/q3':>28} "
              f"{'change q1/med/q3':>28} {'won':>5} {'verdict':>10}")
    print(header)
    print("-" * len(header))
    worse = False
    for workload in WORKLOADS:
        both = [(parent["workloads"][workload], change["workloads"][workload])
                for parent, change in pairs
                if workload in parent["workloads"]
                and workload in change["workloads"]]
        if not both:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            judged = verdict([parent["metrics"][name] for parent, _ in both],
                             [change["metrics"][name] for _, change in both],
                             metric["bound"], metric["better"] == "higher")
            worse |= judged["verdict"] == "worse"
            parent_q = "/".join(f"{value:.3f}" for value in judged["parent"])
            change_q = "/".join(f"{value:.3f}" for value in judged["change"])
            print(f"{workload:<16} {name:<14} {parent_q:>28} "
                  f"{change_q:>28} {judged['won']:>5.0%} "
                  f"{judged['verdict']:>10}")
        # Counters repeat exactly for one seed, so compare them per pair.
        same_seed = [(parent, change) for parent, change in both
                     if parent["seed"] == change["seed"]]
        names = sorted({name for parent, change in same_seed
                        for name in (*parent["counters"], *change["counters"])})
        for name in names:
            differing = sum(1 for parent, change in same_seed
                            if parent["counters"].get(name)
                            != change["counters"].get(name))
            if differing:
                print(f"{workload:<16} counter {name} changed in "
                      f"{differing} of {len(same_seed)} same-seed pairs")
    return 1 if worse else 0


# -- entry points -------------------------------------------------------------


def pin() -> int:
    """Rewrite digests.json from an untraced ``--seed 0`` run."""
    pinned = {}
    for workload in WORKLOADS:
        record = run_workload(workload, 0, 0.0, trace=False, setup_samples=1)
        broken = {index: reason for index, reason in record["failures"].items()
                  if reason != PIN_MISMATCH}
        if broken:
            print(f"{workload}: not pinning, specs fail other checks: "
                  f"{broken}", file=sys.stderr)
            return 1
        pinned[workload] = {
            "specs": record["attempted"],
            "digest": record["counters"]["digest"],
            "per_spec": [digest[:16] for digest in record["digests"]]}
        print(f"{workload}: {record['attempted']} specs, digest "
              f"{record['counters']['digest'][:16]}")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def _check_tree() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}: run the "
                         f"benchmark from a full checkout")


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    signal.signal(signal.SIGTERM, _terminated)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)
    if argv[:1] == ["pin"]:
        _check_tree()
        return pin()

    parser = argparse.ArgumentParser(
        description="Laboratory benchmark (see README.md)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="measure one workload and print the "
                             "JSON result line last")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measure each workload pass for at least "
                             "this long (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a separate traced run (per-layer "
                             "metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="a handful of specs per workload, one pass "
                             "(smoke test)")
    parser.add_argument("--json", type=Path, default=None,
                        help="append this run as one JSON line")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    try:
        _check_tree()
        if args.workload is not None:
            record = run_workload(args.workload, args.seed, args.seconds,
                                  trace, args.quick)
            print_record(record, trace)
            print(json.dumps(result_line(record, trace)))
            return 0 if record["correct"] else 1
        seconds = 0.0 if args.quick else args.seconds
        samples = 1 if args.quick else SETUP_SAMPLES
        records = {}
        for workload in WORKLOADS:
            records[workload] = run_workload(workload, args.seed, seconds,
                                             trace, args.quick, samples)
            print_record(records[workload], trace)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.json is not None:
        with args.json.open("a") as handle:
            handle.write(json.dumps({
                "seed": args.seed, "quick": args.quick, "trace": trace,
                "workloads": {name: {key: value for key, value
                                     in record.items() if key != "digests"}
                              for name, record in records.items()}}) + "\n")
    return 0 if all(record["correct"] for record in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
