"""One workload, measured in a fresh interpreter (run by ``bench.py``).

``python child.py MODE --workload NAME --seed S --seconds T --out FILE``

* ``setup``: import the package and build the workload's artefacts
  (train the ML workload, build every video fan-out), then stop.
* ``run``: set up, then time the workload with tracing off and check
  every output.
* ``trace``: set up, install :mod:`probes`, run the same sections once
  traced, and report per-layer self times and counts.

The result is one JSON document written to ``--out``.  Set-up is timed
from the first line of this file, so it includes every import.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE)]

#: warm replays after every workload pass; the fastest is
#: ``replay_wall_s``
REPLAYS = 5
#: untraced rounds (a workload pass and its replays) per run, at least;
#: each spec keeps its fastest time, which filters bursts of host noise
MIN_PASSES = 3
#: worker processes of the journaled sweep: one per core of the 2-vCPU
#: machine the benchmark is sized for
WORKERS = 2


def setup(name: str, seed: int, quick: bool):
    """Import everything the workload touches and build its artefacts."""
    import repro.core.audit  # noqa: F401 - set-up imports every layer
    import repro.core.cache  # noqa: F401
    import repro.core.checkpoint  # noqa: F401
    import repro.core.overload  # noqa: F401
    import repro.core.parallel  # noqa: F401
    import repro.core.persistence  # noqa: F401
    import repro.core.reliability  # noqa: F401
    import repro.core.resilience  # noqa: F401
    import repro.core.supervise  # noqa: F401
    from repro.core.deployments.ml import ml_workload
    from repro.core.deployments.video import video_workload
    import workloads

    imported = time.perf_counter()
    specs = workloads.WORKLOADS[name](seed, quick)
    for scale, workload_seed in sorted({(spec.scale, spec.workload_seed)
                                        for spec in specs
                                        if spec.workload != "video"}):
        ml_workload(scale, workload_seed).trained
    trained = time.perf_counter()
    for fanout, workload_seed in sorted({(spec.fanout, spec.workload_seed)
                                         for spec in specs
                                         if spec.workload == "video"}):
        video_workload(fanout, workload_seed)
    built = time.perf_counter()
    return specs, {"setup_s": built - _STARTED,
                   "setup.import_s": imported - _STARTED,
                   "setup.ml_train_s": trained - imported,
                   "setup.video_build_s": built - trained}


def digest(outcome) -> str:
    from repro.core.persistence import outcome_to_dict, payload_checksum
    return payload_checksum(outcome_to_dict(outcome))


class Checks:
    """Per-spec failures across every path a run takes."""

    def __init__(self):
        self.failures = {}

    def fail(self, index: int, reason: str) -> None:
        self.failures.setdefault(index, reason)

    def outcomes(self, label: str, outcomes):
        """Digests of one path's outcomes; missing ones are failures."""
        digests = []
        for index, outcome in enumerate(outcomes):
            if outcome is None:
                self.fail(index, f"{label}: no outcome")
                digests.append(None)
                continue
            digests.append(digest(outcome))
            report = outcome.audit
            if report is not None and not report.passed:
                self.fail(index, f"{label}: audit violated "
                                 f"{[c.invariant for c in report.violations]}")
        return digests

    def agree(self, label: str, reference, digests) -> None:
        for index, (expected, actual) in enumerate(zip(reference, digests)):
            if expected != actual:
                self.fail(index, f"{label}: outcome differs")


def simulation_pass(specs, checks: Checks):
    """Every spec through ``execute_spec``; returns the outcomes and each
    spec's seconds."""
    from repro.core.audit import collect_violations
    from repro.core.parallel import execute_spec   # probed when tracing

    outcomes = []
    seconds = []
    with collect_violations():
        for index, spec in enumerate(specs):
            start = time.perf_counter()
            try:
                outcome = execute_spec(spec)
            except Exception as error:   # a failing spec is a datum
                outcome = None
                checks.fail(index, f"raised {type(error).__name__}: {error}")
            seconds.append(time.perf_counter() - start)
            outcomes.append(outcome)
    return outcomes, seconds


def supervised_pass(specs, root: Path, cache_root: Path, checks: Checks):
    """One ``SupervisedRunner`` sweep with a fresh journal under ``root``."""
    from repro.core.cache import ResultCache
    from repro.core.supervise import SupervisedRunner

    runner = SupervisedRunner(workers=WORKERS, cache=ResultCache(cache_root),
                              journal=root / "journal")
    start = time.perf_counter()
    result = runner.run(specs)
    elapsed = time.perf_counter() - start
    for failure in result.failures:
        checks.fail(failure.index, f"supervised: {failure.error}")
    return result.outcomes, elapsed


def replay(specs, cache_root: Path):
    """Re-run the spec list against a warm cache (the CLI's rerun)."""
    from repro.core.cache import ResultCache
    from repro.core.parallel import ParallelRunner

    runner = ParallelRunner(workers=1, cache=ResultCache(cache_root))
    start = time.perf_counter()
    outcomes = runner.run(specs)
    return outcomes, time.perf_counter() - start


def peak_rss_mb() -> float:
    """This process's maximum resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def want_more(sections, seconds: float, traced: bool) -> bool:
    """Whether to make another round: a workload pass and its replays.

    An untraced run makes about ``seconds`` of rounds, counted from the
    first, and at least ``MIN_PASSES``; a traced run makes one.
    """
    first = sections["passes"][0] + sum(sections["replays"][:REPLAYS])
    return not traced and len(sections["passes"]) < max(
        MIN_PASSES, round(seconds / first))


def measure_simulation(specs, seconds: float, traced: bool, scratch: Path,
                       checks: Checks):
    """Passes through ``execute_spec``, each followed by ``REPLAYS``
    warm-cache replays of the first pass's outcomes.

    ``wall`` sums each spec's fastest time over the passes.  Replays are
    interleaved with the passes so that one burst of host noise cannot
    cover them all.  Returns the timed sections and the outcome lists to
    cross-check, reference first.
    """
    from repro.core.cache import ResultCache

    sections = {"passes": [], "replays": []}
    cache_root = Path(tempfile.mkdtemp(dir=scratch))
    paths = []
    spec_seconds = []

    def replay_once():
        outcomes, elapsed = replay(specs, cache_root)
        sections["replays"].append(elapsed)
        paths.append(("cache replay", outcomes))

    while not spec_seconds or want_more(sections, seconds, traced):
        outcomes, times = simulation_pass(specs, checks)
        sections["passes"].append(sum(times))
        sections.setdefault("peak_rss_mb", peak_rss_mb())
        spec_seconds.append(times)
        paths.append(("pass", outcomes))
        if "fill" not in sections:
            cache = ResultCache(cache_root)
            start = time.perf_counter()
            for spec, outcome in zip(specs, outcomes):
                if outcome is not None:
                    cache.put(spec, outcome)
            sections["fill"] = time.perf_counter() - start
        for _ in range(REPLAYS):
            replay_once()
    sections["wall"] = sum(min(times) for times in zip(*spec_seconds))
    return sections, paths


def measure_journaled(specs, seconds: float, traced: bool, scratch: Path,
                      checks: Checks):
    """Cold supervised passes, each followed by ``REPLAYS`` warm
    supervised passes over its cache, then the in-process serial
    reference.

    A supervised sweep reports no per-spec times, so ``wall`` is the
    fastest cold pass.
    """
    sections = {"passes": [], "replays": []}
    paths = []
    children = resource.getrusage(resource.RUSAGE_CHILDREN)

    def warm_pass(cache_root: Path):
        warm, elapsed = supervised_pass(
            specs, Path(tempfile.mkdtemp(dir=scratch)), cache_root, checks)
        sections["replays"].append(elapsed)
        paths.append(("warm pass", warm))

    while not sections["passes"] or want_more(sections, seconds, traced):
        root = Path(tempfile.mkdtemp(dir=scratch))
        cold, elapsed = supervised_pass(specs, root, root / "cache", checks)
        sections["passes"].append(elapsed)
        sections.setdefault("peak_rss_mb", peak_rss_mb())
        paths.append(("cold pass", cold))
        for _ in range(REPLAYS):
            warm_pass(root / "cache")
    # warm passes launch no workers, so every child CPU second is cold
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    sections["children_cpu"] = (after.ru_utime + after.ru_stime
                                - children.ru_utime - children.ru_stime
                                ) / len(sections["passes"])
    sections["wall"] = min(sections["passes"])
    serial, times = simulation_pass(specs, checks)
    sections["serial_ref"] = sum(times)
    return sections, [("serial reference", serial)] + paths


def measure(name: str, specs, seconds: float, traced: bool, scratch: Path):
    """Time the workload's sections, then check every output untraced.

    Every path's outcomes must equal the reference path's, replays must
    come from the cache, and audited specs must pass their audits.
    Returns ``(sections, checks, reference digests, probes)``.
    """
    import workloads

    checks = Checks()
    probes = None
    if traced:
        import probes as probes_mod
        probes = probes_mod.install()
    try:
        run = (measure_journaled if name == workloads.JOURNALED
               else measure_simulation)
        sections, paths = run(specs, seconds, traced, scratch, checks)
    finally:
        if probes is not None:
            probes_mod.uninstall()

    (label, outcomes), others = paths[0], paths[1:]
    reference = checks.outcomes(label, outcomes)
    for label, outcomes in others:
        checks.agree(f"{label} vs {paths[0][0]}", reference,
                     checks.outcomes(label, outcomes))
        if label in ("cache replay", "warm pass"):
            for index, outcome in enumerate(outcomes):
                if outcome is not None and not outcome.cached:
                    checks.fail(index, f"{label} missed the cache")
    return sections, checks, reference, probes


def layer_report(probes) -> dict:
    """Self time of every layer, inclusive timers and counts."""
    report = {f"{layer}.self_s": seconds
              for layer, seconds in probes.self_s.items()}
    report.update(probes.timers)
    report.update(probes.counts)
    events = probes.counts["sim.events"]
    report["sim.us_per_event"] = (report["sim.self_s"] / events * 1e6
                                  if events else 0.0)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # Exit through the finally blocks (which stop supervised workers)
    # when the benchmark is told to stop.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))

    specs, setup_metrics = setup(args.workload, args.seed, args.quick)
    result = {"setup": setup_metrics, "specs": len(specs)}
    if args.mode != "setup":
        scratch = Path(tempfile.mkdtemp(dir=args.out.parent))
        try:
            sections, checks, digests, probes = measure(
                args.workload, specs, args.seconds, args.mode == "trace",
                scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        result.update(sections=sections, digests=digests,
                      failures={str(index): reason for index, reason
                                in sorted(checks.failures.items())})
        if probes is not None:
            result["layers"] = layer_report(probes)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
