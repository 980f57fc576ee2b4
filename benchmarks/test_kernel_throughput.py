"""Kernel dispatch throughput — events/sec, optimized vs seed kernel.

The simulation kernel is the hot path under every campaign, so its
dispatch rate bounds the whole bench suite.  This microbenchmark drives
an identical workload (timeout ticking, immediate-event ping-pong and
AllOf fan-outs — the three dispatch shapes campaigns exercise) through

* ``repro.sim.kernel`` — the live, optimized kernel, and
* ``benchmarks/_seed_kernel.py`` — a frozen copy of the pre-optimization
  kernel,

and reports the events/sec ratio.  ``make bench-kernel`` runs it in
script mode and records the numbers in ``BENCH_kernel.json``.
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

from repro.sim import kernel as live_kernel

#: The optimization budget: the live kernel must dispatch at least this
#: many times more events/sec than the seed kernel.  Quiet-machine
#: best-of runs land at 1.6-1.73x; the floor leaves headroom for noise.
#: Tier-1 does not collect benchmarks/: the floor is enforced by the exit
#: code of `make bench-kernel` and by a hand-run pytest of this file.
SPEEDUP_FLOOR = 1.5


def _workload(kernel, n_processes: int, n_steps: int) -> float:
    """Events/sec over a mixed dispatch workload on ``kernel``."""
    env = kernel.Environment()

    def ticker(env, steps):
        # Pure timeout dispatch: the cold-start campaign shape.
        for _ in range(steps):
            yield env.timeout(1.0)

    def pingpong(env, steps):
        # Already-triggered events resumed on the next dispatch: the
        # storage/queue completion shape.
        for _ in range(steps):
            event = env.event()
            event.succeed(None)
            yield event
            yield env.timeout(0.5)

    def fanout(env, steps):
        # AllOf over timeout batches: the fan-out workflow shape.
        for _ in range(steps // 4):
            yield env.all_of([env.timeout(0.25) for _ in range(4)])

    processes = []
    for _ in range(n_processes):
        processes.append(env.process(ticker(env, n_steps)))
        processes.append(env.process(pingpong(env, n_steps)))
        processes.append(env.process(fanout(env, n_steps)))

    # Drive through run(until=event) — the way Testbed.run drives every
    # campaign — so the stop-event dispatch loop is what gets measured.
    # GC pauses are noise, not dispatch cost: hold collection during the
    # timed window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        env.run(until=env.all_of(processes))
        env.run()
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return env._sequence / elapsed


def measure(n_processes: int = 50, n_steps: int = 400,
            rounds: int = 9) -> dict:
    """Best-of-``rounds`` events/sec for both kernels, plus the ratio.

    Rounds are interleaved (seed, optimized, seed, ...) and each side's
    throughput is the max over its rounds: on a machine with bursty
    background load, the max is the round that dodged the noise, so with
    enough rounds both kernels are compared at quiet-machine speed.
    Per-round ratios are reported for diagnostics but deliberately not
    aggregated — load flipping mid-round makes individual ratios swing
    both ways.
    """
    rounds = int(os.environ.get("REPRO_BENCH_ROUNDS") or rounds)
    seeds = []
    lives = []
    for _ in range(rounds):
        seeds.append(_workload(_seed_kernel, n_processes, n_steps))
        lives.append(_workload(live_kernel, n_processes, n_steps))
    return {
        "workload": {"processes": n_processes * 3, "steps": n_steps,
                     "rounds": rounds},
        "seed_events_per_sec": round(max(seeds)),
        "optimized_events_per_sec": round(max(lives)),
        "speedup": round(max(lives) / max(seeds), 3),
        "round_speedups": [
            round(live / seed, 3) for live, seed in zip(lives, seeds)],
        "speedup_floor": SPEEDUP_FLOOR,
    }


def test_kernel_throughput(benchmark):
    from conftest import once

    numbers = once(benchmark, lambda: measure(n_processes=30, n_steps=250))
    print()
    print(f"seed kernel:      {numbers['seed_events_per_sec']:>12,} events/s")
    print(f"optimized kernel: "
          f"{numbers['optimized_events_per_sec']:>12,} events/s")
    print(f"speedup:          {numbers['speedup']:.2f}x "
          f"(floor {SPEEDUP_FLOOR}x)")
    assert numbers["speedup"] >= SPEEDUP_FLOOR


def main() -> int:
    numbers = measure()
    out = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    out.write_text(json.dumps(numbers, indent=2) + "\n")
    print(json.dumps(numbers, indent=2))
    print(f"written to {out}")
    return 0 if numbers["speedup"] >= SPEEDUP_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main())
