"""Observability tour: spans, Gantt charts and metric timeseries.

Runs one Azure durable video fan-out and then plays platform operator:
renders the workflow's Gantt chart (where did the time go?), a per-minute
p95 of worker scheduling delay (the scale controller's fingerprints), and
the queue-transaction rate over time (what the tenant is billed for).

Run:  python examples/observability.py
"""

from repro.core import Testbed, build_video_deployments
from repro.core.report import render_gantt, render_table
from repro.telemetry import SpanKind, series_from_spans

WORKERS = 24


def main():
    testbed = Testbed(seed=63)
    deployment = build_video_deployments(testbed, n_workers=WORKERS)[
        "Az-Dorch"]
    deployment.deploy()
    window_start = testbed.now
    # Sample the running transaction total once a simulated minute.
    meter = testbed.azure.meter
    samples = []

    def sample_meter(env):
        while True:
            samples.append(len(meter))
            yield env.timeout(60.0)

    testbed.env.process(sample_meter(testbed.env))
    result = testbed.run(deployment.invoke(n_workers=WORKERS))
    samples.append(len(meter))
    print(f"video fan-out with {WORKERS} workers finished in "
          f"{result.latency:.0f}s (simulated)\n")

    telemetry = testbed.azure.telemetry

    # 1. Gantt: the first few spans of the run.
    print(render_gantt(
        [span for span in telemetry.spans
         if span.kind in (SpanKind.COLD_START, SpanKind.EXECUTION,
                          SpanKind.REPLAY)],
        since=window_start, max_rows=18, width=60,
        title="Gantt (first 18 spans): instance births vs executions"))

    # 2. Worker scheduling delay, per-minute p95.
    series = series_from_spans(telemetry, SpanKind.SCHEDULING,
                               clock=lambda: testbed.now,
                               name="az-video-detect")
    points = series.percentile_per_period(period_s=60.0, q=95)
    print()
    print(render_table(
        ["minute", "p95 scheduling delay (s)"],
        [[f"{start / 60:.0f}", value] for start, value in points],
        title="Worker scheduling delay per minute (p95)"))

    # 3. Storage transactions over time: differences of the samples.
    per_minute = [after - before
                  for before, after in zip(samples, samples[1:])]
    print()
    print(render_table(
        ["minute", "billable transactions"],
        [[str(minute), count]
         for minute, count in enumerate(per_minute[:8])],
        title="Storage transaction rate (first 8 minutes)"))
    total = len(meter)
    print(f"\ntotal transactions so far: {total:,} "
          f"(≈ ${total * 4e-8:.6f} of stateful cost)")


if __name__ == "__main__":
    main()
