"""Macro campaign benchmark — whole-campaign wall-clock, pre- vs post-PR.

The kernel microbenchmark (``test_kernel_throughput``) measures dispatch
in isolation; this bench measures what a user actually waits for: an
audited Az-Dorch overload campaign, end to end, under two configurations

* **baseline** — the frozen seed kernel (``benchmarks/_seed_kernel.py``)
  with idle-poll elision disabled: the simulator as it stood before the
  optimization pass, and
* **optimized** — the live kernel with idle-poll elision on (the
  default calibration).

The workload is deliberately idle-heavy: sparse Poisson arrivals
(0.02 req/s over a two-hour horizon) against the Durable Functions
stand-in, whose task-hub queues poll throughout.  That is the regime the
paper's cost analysis highlights — idle polling dominates both the bill
and, before this pass, the simulation's wall-clock.  Two effects
compound here: the optimized kernel dispatches each event faster, and
elision removes ~40% of the events outright (recorded as
``event_reduction``; that ratio is deterministic, unlike timing).

Campaign *outcomes* must not drift: both configurations complete the
same number of requests and pass the runtime audit, which the bench
asserts before reporting any timing.

``make bench-campaign`` runs it in script mode and records the numbers
in ``BENCH_campaign.json``.  ``REPRO_BENCH_ROUNDS`` overrides the round
count (CI smoke runs use 1).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import _seed_kernel

import repro.core.testbed as testbed_mod
from repro.core.parallel import CampaignSpec, execute_spec
from repro.sim import kernel as live_kernel

#: The whole-campaign budget: the optimized configuration must finish
#: the campaign at least this many times faster than the baseline.
#: Quiet-machine measurements land at 1.45-2.1x; the floor leaves
#: headroom for shared-runner noise since this assert is in tier-1.
CAMPAIGN_SPEEDUP_FLOOR = 1.25

#: Sparse, idle-heavy, audited: the shape where queue polling dominates.
WORKLOAD = dict(deployment="Az-Dorch", workload="ml-training",
                scale="small", campaign="overload", arrival="poisson",
                arrival_rate_per_s=0.02, horizon_s=7200.0, seed=31,
                audit=True)


def _run_campaign(env_cls, elision: bool) -> dict:
    """One audited campaign on ``env_cls``; returns timing and outcome.

    ``repro.core.testbed.Environment`` is the sole construction site for
    campaign environments, so swapping it swaps the kernel under the
    entire stack.  A probe subclass captures the created environment so
    the dispatch count (``_sequence``) can be reported.
    """
    created = []

    class Probe(env_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    spec = CampaignSpec(
        calibration_overrides={"azure.idle_poll_elision": elision},
        **WORKLOAD)
    original = testbed_mod.Environment
    testbed_mod.Environment = Probe
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        outcome = execute_spec(spec)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
        testbed_mod.Environment = original
    return {
        "elapsed_s": elapsed,
        "events": created[-1]._sequence,
        "succeeded": outcome.overload.succeeded,
        "audit_passed": outcome.audit.passed,
    }


def measure(rounds: int = 5) -> dict:
    """Best-of-``rounds`` campaign wall-clock for both configurations.

    Rounds are interleaved and each side is scored by its *fastest*
    round — the same noise-dodging estimator as the kernel bench: on a
    machine with bursty background load, the min-elapsed round is the
    one that ran at quiet-machine speed.  Per-round ratios are reported
    for diagnostics but not aggregated.
    """
    rounds = int(os.environ.get("REPRO_BENCH_ROUNDS") or rounds)
    baseline = []
    optimized = []
    for _ in range(rounds):
        baseline.append(_run_campaign(_seed_kernel.Environment,
                                      elision=False))
        optimized.append(_run_campaign(live_kernel.Environment,
                                       elision=True))
    for side in (baseline, optimized):
        assert all(run["audit_passed"] for run in side)
        assert len({run["succeeded"] for run in side}) == 1
        assert len({run["events"] for run in side}) == 1
    # Same requests completed under both configurations — elision and
    # kernel changes alter simulator effort, never campaign outcomes.
    assert baseline[0]["succeeded"] == optimized[0]["succeeded"]
    best_base = min(run["elapsed_s"] for run in baseline)
    best_opt = min(run["elapsed_s"] for run in optimized)
    return {
        "workload": dict(WORKLOAD, rounds=rounds),
        "baseline": {
            "kernel": "seed", "idle_poll_elision": False,
            "events": baseline[0]["events"],
            "best_elapsed_s": round(best_base, 3),
            "elapsed_s": [round(run["elapsed_s"], 3) for run in baseline],
        },
        "optimized": {
            "kernel": "live", "idle_poll_elision": True,
            "events": optimized[0]["events"],
            "best_elapsed_s": round(best_opt, 3),
            "elapsed_s": [round(run["elapsed_s"], 3) for run in optimized],
        },
        "succeeded": baseline[0]["succeeded"],
        "audit_passed": True,
        "event_reduction": round(
            baseline[0]["events"] / optimized[0]["events"], 3),
        "speedup": round(best_base / best_opt, 3),
        "round_speedups": [
            round(base["elapsed_s"] / opt["elapsed_s"], 3)
            for base, opt in zip(baseline, optimized)],
        "speedup_floor": CAMPAIGN_SPEEDUP_FLOOR,
    }


def test_macro_campaign(benchmark):
    from conftest import once

    numbers = once(benchmark, lambda: measure(rounds=3))
    print()
    print(f"baseline campaign:  {numbers['baseline']['best_elapsed_s']:>8.3f} s"
          f"  ({numbers['baseline']['events']:,} events)")
    print(f"optimized campaign: {numbers['optimized']['best_elapsed_s']:>8.3f} s"
          f"  ({numbers['optimized']['events']:,} events)")
    print(f"event reduction:    {numbers['event_reduction']:.2f}x")
    print(f"speedup:            {numbers['speedup']:.2f}x "
          f"(floor {CAMPAIGN_SPEEDUP_FLOOR}x)")
    assert numbers["event_reduction"] > 1.3
    assert numbers["speedup"] >= CAMPAIGN_SPEEDUP_FLOOR


def main() -> int:
    numbers = measure()
    out = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"
    out.write_text(json.dumps(numbers, indent=2) + "\n")
    print(json.dumps(numbers, indent=2))
    print(f"written to {out}")
    return 0 if numbers["speedup"] >= CAMPAIGN_SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
