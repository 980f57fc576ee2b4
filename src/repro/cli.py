"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro latency   --scale small --iterations 10 --workers 4
    python -m repro inference --scale large
    python -m repro coldstart --days 2
    python -m repro video     --workers 1,5,20,80 -j 4
    python -m repro cost      --runs-per-month 30
    python -m repro paper     # condensed everything

Each subcommand builds fresh testbeds, runs the campaign on the simulated
clock and prints the corresponding table/figure.  The campaign commands
are the rows of :data:`COMMANDS`, and :func:`run_commands` builds, runs
and renders every one of them.  They accept ``--platforms``/``-p`` (a
comma list of registered backends, e.g. ``-p aws,gcp``) to restrict
which platforms' variants run; the default is every registered backend.

Campaigns fan out across ``--workers``/``-j`` worker processes and land
in an on-disk result cache (``~/.cache/repro/campaigns`` or
``$REPRO_CACHE_DIR``), so re-running a command reuses completed
campaigns.  ``--no-cache`` bypasses the cache; ``repro cache --clear``
drops it.  On ``video``/``cost``, ``--workers`` already means the fan-out
width from the paper, so the worker-process count is spelled ``-j``
there.

Long sweeps can run crash-safe: ``--journal DIR`` checkpoints every
completed campaign to an append-only sweep journal the moment it
finishes, ``--spec-timeout``/``--max-worker-restarts`` bound stuck and
crashing workers, and a killed sweep is finished later with
``repro resume DIR`` (or the original command plus ``--resume``) —
re-running only the missing specs, bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.audit import collect_violations, merge_reports
from repro.core.cache import ResultCache
from repro.core.checkpoint import JournalError, SweepJournal
from repro.core.costs import monthly_projection
from repro.core.experiment import ColdStartCampaign
from repro.core.metrics import percentile
from repro.core.mitigation import MitigationPolicy
from repro.core.overload import ratio
from repro.core.parallel import (
    VARIANT_PLATFORMS,
    WORKLOAD_VARIANTS,
    CampaignOutcome,
    CampaignSpec,
)
from repro.core.persistence import save_results
from repro.core.report import render_bars, render_table
from repro.core.supervise import SupervisedRunner
from repro.platforms.backend import backend_names
from repro.platforms.faults import FaultPlan

ML_VARIANTS = WORKLOAD_VARIANTS["ml-training"]
#: each platform's orchestrated variant
ORCHESTRATED = ("AWS-Step", "Az-Dorch", "GCP-Flows")
#: the variants the overload sweeps push past saturation by default
OVERLOADED = ("AWS-Step", "Az-Func", "GCP-Func")


# -- argument types ---------------------------------------------------------

def _bounded(kind: type, low: float, high: Optional[float] = None,
             strict: bool = False) -> Callable[[str], Any]:
    """A parser of one ``kind`` number at least ``low`` (above it when
    ``strict``) and at most ``high``."""
    if high is not None:
        rule = f"must lie in [{low:g}, {high:g}]"
    else:
        rule = f"must be {'>' if strict else '>='} {low:g}"

    def parse(text: str) -> Any:
        try:
            number = kind(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from error
        if not ((number > low if strict else number >= low)
                and (high is None or number <= high)):
            raise argparse.ArgumentTypeError(rule)
        return number
    return parse


def _one_of(what: str,
            known: Callable[[], Sequence[str]]) -> Callable[[str], str]:
    """A parser of one name from ``known()``."""
    def parse(name: str) -> str:
        if name not in known():
            raise argparse.ArgumentTypeError(
                f"unknown {what} {name!r}; choose from {list(known())}")
        return name
    return parse


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], List[Any]]:
    """A parser of a non-empty comma list whose items ``parse`` reads."""
    def parse_list(text: str) -> List[Any]:
        items = [parse(item.strip()) for item in text.split(",")
                 if item.strip()]
        if not items:
            raise argparse.ArgumentTypeError("expected a comma list")
        return items
    return parse_list


_positive_int = _bounded(int, 1)
_nonnegative_int = _bounded(int, 0)
_positive_float = _bounded(float, 0, strict=True)
_probability = _bounded(float, 0, 1)
_worker_list = _list_of(_positive_int)
_rate_list = _list_of(_positive_float)
_variants = _list_of(_one_of("variant", lambda: ML_VARIANTS))
_platforms = _list_of(_one_of("platform", backend_names))


def _cache(args: argparse.Namespace) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(getattr(args, "cache_dir", None))


def _check_resume_flags(args: argparse.Namespace) -> None:
    """``--resume`` without ``--journal`` is an error, not a no-op.

    Silently ignoring ``--resume`` would re-run the whole sweep
    uncheckpointed; demand the journal it is meant to reuse.
    """
    if getattr(args, "resume", False) and \
            getattr(args, "journal", None) is None:
        raise SystemExit(
            "repro: --resume requires --journal DIR (the journal to "
            "reuse); or finish the sweep with `repro resume DIR`")


def _interrupted_exit(journal) -> None:
    """The shared SIGINT contract: resume hint on stderr, exit 130."""
    if journal is not None:
        status = ""
        try:
            status = f" ({SweepJournal(journal).progress()})"
        except JournalError:
            pass
        print(f"\ninterrupted; completed campaigns are "
              f"journaled{status}", file=sys.stderr)
        print(f"finish the sweep with: repro resume {journal}",
              file=sys.stderr)
    else:
        print("\ninterrupted", file=sys.stderr)
    raise SystemExit(130) from None


def _run_specs(args: argparse.Namespace, specs) -> list:
    """Run a command's specs on the :class:`SupervisedRunner`.

    ``-j`` sets its worker processes, ``--journal`` checkpoints each
    completed outcome the moment it exists, and ``--spec-timeout`` /
    ``--max-worker-restarts`` bound stuck and crashing workers.  Failed
    specs are reported one by one (exit 1) once their siblings have
    completed, and SIGINT/SIGTERM exit 130, leaving a resumable journal
    behind when there is one.
    """
    journal = getattr(args, "journal", None)
    _check_resume_flags(args)
    runner = SupervisedRunner(
        workers=getattr(args, "jobs", 1), cache=_cache(args),
        journal=journal, spec_timeout_s=getattr(args, "spec_timeout", None),
        max_restarts=getattr(args, "max_worker_restarts", 2))
    try:
        result = runner.run(specs, argv=getattr(args, "argv", None),
                            resume=getattr(args, "resume", False))
    except JournalError as error:
        raise SystemExit(f"repro: {error}") from error
    except KeyboardInterrupt:
        _interrupted_exit(journal)
    if not result.ok:
        print(f"{len(result.failures)} of {len(specs)} campaigns "
              f"failed:", file=sys.stderr)
        for failure in result.failures:
            print(f"  {failure}", file=sys.stderr)
        if journal is not None:
            print(f"completed campaigns are journaled; retry with: "
                  f"repro resume {journal}", file=sys.stderr)
        raise SystemExit(1)
    return result.outcomes


# -- campaign commands: one table row each ----------------------------------

@dataclass
class Grid:
    """A campaign grid: one spec per (swept value, variant), value-major,
    and once run, the outcomes in the same order."""

    variants: Sequence[str]
    values: Sequence[Any]
    #: ``spec(args, value, variant)`` builds one cell's spec
    spec: Callable[[argparse.Namespace, Any, str], CampaignSpec]
    specs: List[CampaignSpec] = field(default_factory=list)
    outcomes: List[CampaignOutcome] = field(default_factory=list)

    def build(self, args: argparse.Namespace,
              platforms: Sequence[str]) -> List[CampaignSpec]:
        """The cells' specs, keeping the variants of ``platforms``."""
        requested = self.variants
        self.variants = [name for name in requested
                         if VARIANT_PLATFORMS.get(name) in platforms]
        if not self.variants:
            raise SystemExit(
                f"no variants left after --platforms "
                f"{','.join(platforms)}; the requested variants were "
                f"{list(requested)}")
        self.specs = [self.spec(args, value, name) for value in self.values
                      for name in self.variants]
        return self.specs

    def cells(self, part: Optional[str] = None
              ) -> List[Tuple[Any, str, Any]]:
        """``(value, variant, outcome)`` per spec in sweep order, or the
        outcome's ``part`` in place of the outcome."""
        keys = [(value, name) for value in self.values
                for name in self.variants]
        return [(value, name,
                 outcome if part is None else getattr(outcome, part))
                for (value, name), outcome in zip(keys, self.outcomes)]

    def by_platform(self, part: str) -> Dict[str, List[Any]]:
        """The ``part`` of each distinct cell's outcome, grouped by
        platform in registry order."""
        summaries = {(value, name): summary
                     for value, name, summary in self.cells(part)}.values()
        grouped = {platform: [summary for summary in summaries
                              if summary.platform == platform]
                   for platform in backend_names()}
        return {platform: group for platform, group in grouped.items()
                if group}


class Command(NamedTuple):
    """One campaign command: its ``--help`` line, its own flags, fixed
    settings it takes no flag for, the grids it sweeps, and the report
    ``render(args, *grids)`` prints, returning the exit code."""

    help: str
    arguments: Tuple[Tuple[Tuple[str, ...], Dict[str, Any]], ...]
    grids: Callable[[argparse.Namespace], List[Grid]]
    render: Callable[..., int]
    defaults: Dict[str, Any] = {}
    #: report violated invariants in the table instead of failing the
    #: audited spec
    reports_violations: bool = False


def run_commands(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Build the named commands' grids from ``args``, run all their
    specs as one sweep, then print each command's report in turn.

    A setting a constructor or calibration rejects exits before any
    worker starts.  Returns the largest exit code of the reports.
    """
    platforms = getattr(args, "platforms", None) or backend_names()
    try:
        grids = [COMMANDS[name].grids(args) for name in names]
        specs = [spec for group in grids for grid in group
                 for spec in grid.build(args, platforms)]
        # Overridden calibrations are validated only when applied.
        for spec in {spec.calibration_overrides: spec
                     for spec in specs}.values():
            spec.calibrations()
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from error
    collecting = any(COMMANDS[name].reports_violations for name in names)
    with collect_violations() if collecting else contextlib.nullcontext():
        outcomes = iter(_run_specs(args, specs))
    codes = []
    for name, group in zip(names, grids):
        if codes:
            print()
        for grid in group:
            grid.outcomes = list(itertools.islice(outcomes, len(grid.specs)))
        codes.append(COMMANDS[name].render(args, *group))
    return max(codes)


def _arg(*flags: str, **options: Any):
    """One ``add_argument`` call, as data."""
    return flags, options


def _iterations(default: int, **options: Any):
    return _arg("--iterations", type=_positive_int, default=default,
                **options)


def _variant_flag(default: Sequence[str], **options: Any):
    return _arg("--variants", type=_variants, default=list(default),
                **options)


_SCALE = _arg("--scale", choices=["small", "large"], default="small")
_JOBS_ALIAS = _arg("--workers", type=_positive_int, dest="jobs",
                   metavar="N", default=argparse.SUPPRESS,
                   help="campaign worker processes (alias for -j)")
#: with ``--audit`` a spec's ``audit`` is True; without it None, so
#: :data:`repro.core.audit.DEFAULT_AUDIT` decides (``args.audit or None``)
_AUDIT = _arg("--audit", action="store_true",
              help="verify runtime invariants during the sweep (raises on "
                   "violation)")
_RETRIES = _arg("--retries", type=_positive_int, default=3,
                help="total attempts synthesized per activity/state "
                     "(default 3)")
#: the grid value of a command that sweeps nothing
_ONCE = (None,)


def _ml_spec(args: argparse.Namespace, _, name: str,
             workload: str = "ml-training") -> CampaignSpec:
    return CampaignSpec(deployment=name, workload=workload,
                        scale=args.scale, iterations=args.iterations,
                        warmup=1, seed=args.seed)


def _render_latency(args: argparse.Namespace, grid: Grid) -> int:
    rows = []
    for _, name, campaign in grid.cells("campaign"):
        stats = campaign.stats()
        rows.append([name, stats.median, stats.p95, stats.p99])
    print(render_table(["variant", "median s", "p95 s", "p99 s"], rows,
                       title=f"ML training latency ({args.scale}, "
                             f"{args.iterations} iterations)"))
    if getattr(args, "save", None):
        path = save_results(
            args.save,
            campaigns=[outcome.campaign for outcome in grid.outcomes],
            cost_reports=[outcome.cost for outcome in grid.outcomes],
            metadata={"command": "latency", "scale": args.scale,
                      "iterations": args.iterations, "seed": args.seed})
        print(f"\nresults saved to {path}")
    return 0


def _render_inference(args: argparse.Namespace, grid: Grid) -> int:
    rows = [[name, campaign.stats().median, campaign.stats().p99]
            for _, name, campaign in grid.cells("campaign")]
    print(render_table(["variant", "median s", "p99 s"], rows,
                       title=f"ML inference latency ({args.scale})"))
    return 0


COLDSTART_INTERVAL_S = 3600.0


def _coldstart_grids(args: argparse.Namespace) -> List[Grid]:
    if ColdStartCampaign(COLDSTART_INTERVAL_S, args.days).request_count < 1:
        raise SystemExit(f"repro: --days {args.days:g} is shorter than "
                         f"one request interval "
                         f"({COLDSTART_INTERVAL_S:g} s), so no request "
                         f"would be sent")
    return [Grid(("Az-Queue", "AWS-Step", "Az-Dorch", "Az-Dent",
                  "GCP-Flows"), _ONCE, _coldstart_spec)]


def _coldstart_spec(args: argparse.Namespace, _, name: str) -> CampaignSpec:
    return CampaignSpec(deployment=name, workload="ml-training",
                        scale="small", campaign="coldstart",
                        interval_s=COLDSTART_INTERVAL_S, days=args.days,
                        seed=args.seed)


def _render_coldstart(args: argparse.Namespace, grid: Grid) -> int:
    data = {name: percentile(campaign.cold_start_delays, 50)
            for _, name, campaign in grid.cells("campaign")}
    request_count = len(grid.outcomes[0].campaign.runs)
    print(render_bars(data, title=f"Cold start delay, median of "
                                  f"{request_count} hourly "
                                  "requests", unit="s"))
    return 0


def _video_spec(args: argparse.Namespace, workers: int,
                name: str) -> CampaignSpec:
    return CampaignSpec(
        deployment=name, workload="video", fanout=workers,
        campaign="latency", iterations=1, warmup=0, think_time_s=0.0,
        settle_time_s=0.0, seed=args.seed,
        invoke_kwargs={"n_workers": workers})


def _render_video(args: argparse.Namespace, grid: Grid) -> int:
    width = len(grid.variants)
    rows = [[workers] + [outcome.campaign.latencies[0] for outcome
                         in grid.outcomes[index * width:(index + 1) * width]]
            for index, workers in enumerate(grid.values)]
    print(render_table(["workers"]
                       + [f"{name} (s)" for name in grid.variants],
                       rows, title="Video processing latency vs workers"))
    return 0


def _cost_spec(args: argparse.Namespace, _, name: str) -> CampaignSpec:
    return CampaignSpec(
        deployment=name, workload="video", fanout=args.workers,
        campaign="latency", iterations=args.measured_runs, warmup=0,
        think_time_s=30.0, settle_time_s=0.0, seed=args.seed,
        idle_window_s=3600.0 if name == "Az-Dorch" else 0.0)


def _render_cost(args: argparse.Namespace, grid: Grid) -> int:
    rows = []
    for _, name, outcome in grid.cells():
        idle = outcome.idle_transactions * 24 * 30
        projected = monthly_projection(outcome.cost, args.runs_per_month,
                                       idle_transactions_per_month=idle)
        rows.append([name, projected.compute_cost,
                     projected.transaction_cost, projected.total,
                     f"{projected.transaction_share:.0%}"])
    print(render_table(
        ["variant", "compute $/mo", "transactions $/mo", "total $/mo",
         "tx share"],
        rows, title=f"Monthly video cost, {args.workers} workers, "
                    f"{args.runs_per_month} runs/month"))
    return 0


def _reliability_grids(args: argparse.Namespace) -> List[Grid]:
    """Crash-probability sweep: the per-platform price of reliability."""
    plans = [FaultPlan(crash_probability=probability,
                       error_probability=args.error_prob,
                       straggler_probability=args.straggler_prob,
                       retry_max_attempts=args.retries)
             for probability in args.sweep or [args.crash_prob]]
    return [Grid(args.variants, plans, _reliability_spec)]


def _reliability_spec(args: argparse.Namespace, plan: FaultPlan,
                      name: str) -> CampaignSpec:
    return CampaignSpec(
        deployment=name, workload="ml-training", scale=args.scale,
        campaign="reliability", iterations=args.iterations, warmup=1,
        seed=args.seed, fault_plan=plan.to_items(), audit=args.audit or None)


def _render_reliability(args: argparse.Namespace, grid: Grid) -> int:
    rows = [[name, plan.crash_probability, f"{summary.success_rate:.0%}",
             summary.retries, round(summary.wasted_gb_s, 3),
             round(summary.cost_amplification, 3),
             round(summary.tail_inflation, 3)]
            for plan, name, summary in grid.cells("reliability")]
    print(render_table(
        ["variant", "crash p", "success", "retries", "wasted GB-s",
         "cost amp", "tail infl"],
        rows, title=f"Price of reliability ({args.scale}, "
                    f"{args.iterations} iterations, "
                    f"{args.retries} attempts)"))

    by_platform = grid.by_platform("reliability")
    if by_platform:
        print("\nTakeaways (per platform):")
        amplifications = {}
        for platform, group in by_platform.items():
            amplification = max(s.cost_amplification for s in group)
            amplifications[platform] = amplification
            worst_ok = min(s.success_rate for s in group)
            wasted = sum(s.wasted_gb_s for s in group)
            print(f"- {platform}: worst-case cost amplification "
                  f"{amplification:.2f}x, worst-case success rate "
                  f"{worst_ok:.0%}, {wasted:.2f} GB-s billed to doomed "
                  f"attempts")
        if len(by_platform) > 1:
            cheapest = min(amplifications, key=amplifications.get)
            print(f"- {cheapest} absorbs this fault plan most cheaply "
                  f"(lowest worst-case amplification); partial "
                  f"executions are billed on every platform")
    return 0


def _resilience_spec(args: argparse.Namespace, duration: float,
                     name: str) -> CampaignSpec:
    """One variant through one outage window, behind the mitigation
    stack the flags describe."""
    plan = FaultPlan(
        outage_windows=[(args.outage_start, duration)],
        outage_mode=args.mode, gray_latency_factor=args.gray_factor,
        gray_error_probability=args.gray_error_prob,
        brownout_delay_s=args.brownout,
        partition_drop_probability=args.partition_drop,
        retry_max_attempts=args.retries)
    policy = MitigationPolicy(
        breaker_failure_threshold=args.breaker_threshold,
        breaker_recovery_timeout_s=args.breaker_timeout,
        hedge_after_s=args.hedge_after,
        deadline_factor=args.deadline_factor,
        request_timeout_s=args.request_timeout)
    return CampaignSpec(
        deployment=name, workload="ml-training", scale=args.scale,
        campaign="resilience", iterations=args.iterations, warmup=1,
        seed=args.seed, fault_plan=plan.to_items(),
        mitigation=policy.to_items(),
        slo_availability=args.slo_availability, slo_p99_s=args.slo_p99,
        audit=args.audit or None)


def _render_resilience(args: argparse.Namespace, grid: Grid) -> int:
    """Outage-window sweep: availability, MTTR, burn and SLO verdicts."""
    rows = [[name, duration, f"{summary.availability:.1%}",
             round(summary.mean_recovery_time_s, 1),
             round(summary.error_budget_burn, 2), summary.hedges_launched,
             round(summary.hedge_overspend_gb_s, 3),
             round(summary.mitigation_cost_overhead, 3),
             "PASS" if summary.slo_met else "FAIL"]
            for duration, name, summary in grid.cells("resilience")]
    slo_label = f"{args.slo_availability:.1%} avail"
    if args.slo_p99:
        slo_label += f", p99 <= {args.slo_p99:g}s"
    print(render_table(
        ["variant", "outage s", "avail", "MTTR s", "burn", "hedges",
         "overspend GB-s", "cost ovh", "SLO"],
        rows, title=f"Resilience through a {args.mode} outage at "
                    f"t={args.outage_start:.0f}s (SLO {slo_label})"))

    by_platform = grid.by_platform("resilience")
    if by_platform:
        print("\nTakeaways (per platform):")
        worst_avail = {}
        for platform, group in by_platform.items():
            availability = min(s.availability for s in group)
            worst_avail[platform] = availability
            mttr = max(s.mean_recovery_time_s for s in group)
            overspend = sum(s.hedge_overspend_gb_s for s in group)
            met = all(s.slo_met for s in group)
            print(f"- {platform}: worst-case availability "
                  f"{availability:.1%}, worst MTTR {mttr:.1f}s, "
                  f"{overspend:.3f} GB-s hedge overspend, SLO "
                  f"{'met' if met else 'MISSED'} across the sweep")
        if len(worst_avail) > 1:
            top = max(worst_avail.values())
            leaders = [name for name, value in worst_avail.items()
                       if value == top]
            if len(leaders) == 1:
                print(f"- {leaders[0]} holds the highest worst-case "
                      f"availability through this outage shape; "
                      f"replay-based recovery resumes where "
                      f"crash-restart re-runs from scratch")
            else:
                print(f"- {', '.join(leaders)} tie on worst-case "
                      f"availability ({top:.1%}) through this outage "
                      f"shape — differentiate with longer windows "
                      f"(--sweep) or gray mode (--mode gray)")
    return 0


def _overload_spec(args: argparse.Namespace, rate: float,
                   name: str) -> CampaignSpec:
    """Open-loop load at ``rate`` past the capacity the flags set."""
    overrides = {
        "aws.concurrency_limit": args.concurrency,
        "aws.burst_concurrency": args.burst,
        "aws.refill_per_s": args.refill,
        "azure.max_instances": args.max_instances,
        "azure.queue_depth_limit": args.queue_depth,
        "azure.shed_deadline_s": args.shed_deadline,
        "gcp.max_instances": args.gcp_max_instances,
    }
    return CampaignSpec(
        deployment=name, workload="ml-training", scale=args.scale,
        campaign="overload", arrival=args.arrival, arrival_rate_per_s=rate,
        horizon_s=args.horizon, seed=args.seed,
        calibration_overrides=overrides, audit=args.audit or None)


def _render_overload(args: argparse.Namespace, grid: Grid) -> int:
    """Open-loop rate sweep past saturation: 429s, backpressure, shedding."""
    rows = [[name, rate, summary.offered, summary.succeeded,
             summary.throttled, summary.shed, summary.failed,
             round(summary.goodput_per_s, 3),
             round(summary.retry_amplification, 2),
             round(summary.p99_latency_s, 1)]
            for rate, name, summary in grid.cells("overload")]
    print(render_table(
        ["variant", "rate/s", "offered", "ok", "429", "shed", "failed",
         "goodput/s", "retry amp", "p99 s"],
        rows, title=f"Overload sweep ({args.scale}, {args.arrival} "
                    f"arrivals, {args.horizon:.0f}s horizon)"))

    by_platform = grid.by_platform("overload")
    if by_platform:
        top = max(args.rates)
        print("\nTakeaways (per platform):")
        for platform, group in by_platform.items():
            rejected = max(summary.shed_rate + summary.throttle_rate
                           for summary in group)
            amplification = max(summary.retry_amplification
                                for summary in group)
            best = max(summary.goodput_per_s for summary in group)
            at_top = [summary for summary in group
                      if summary.rate_per_s == top]
            kept = ratio(at_top[0].goodput_per_s, best) if at_top else 0.0
            inflation = _tail_inflation(group)
            print(f"- {platform}: up to {rejected:.0%} of offered "
                  f"requests rejected or shed, retry amplification "
                  f"{amplification:.2f}x, goodput holds {kept:.0%} of "
                  f"its peak at {top:g} req/s, tail inflation "
                  f"{inflation:.2f}x (p99 at max rate / p99 at min)")
        print("- mechanisms differ: AWS rejects at admission after "
              "exhausted backoff, Azure pushes back at bounded queues "
              "and sheds on deadline, GCP 429s at the gen1 instance cap "
              "while Workflows' retry policy re-offers the load")
    return 0


def _tail_inflation(summaries) -> float:
    """p99 at the highest swept rate over p99 at the lowest."""
    ordered = sorted(summaries, key=lambda summary: summary.rate_per_s)
    if not ordered:
        return 0.0
    return ratio(ordered[-1].p99_latency_s, ordered[0].p99_latency_s)


def _audit_grids(args: argparse.Namespace) -> List[Grid]:
    """Audited chaos + overload sweeps.

    A reliability sweep (crashes, transient errors, queue chaos) and an
    overload sweep (past saturation on every platform), both with the
    invariant auditor on.
    """
    plans = [
        FaultPlan(crash_probability=0.15,
                  retry_max_attempts=args.retries),
        FaultPlan(error_probability=0.2,
                  retry_max_attempts=args.retries),
        FaultPlan(queue_delay_probability=0.2, queue_delay_s=2.0,
                  queue_duplication_probability=0.3,
                  retry_max_attempts=args.retries),
    ]
    return [Grid(args.variants, plans, _reliability_spec),
            Grid(OVERLOADED, args.rates, _overload_spec)]


def _render_audit(args: argparse.Namespace, reliability: Grid,
                  overload: Grid) -> int:
    """The per-invariant verdict table; exit 1 on any violation."""
    outcomes = reliability.outcomes + overload.outcomes
    reports = [outcome.audit for outcome in outcomes]
    merged = merge_reports(reports)
    rows = [[invariant, passes, fails, "VIOLATED" if fails else "ok"]
            for invariant, (passes, fails) in merged.items()]
    print(render_table(
        ["invariant", "passes", "violations", "verdict"], rows,
        title=f"Invariant audit: {len(outcomes)} campaigns "
              f"({len(reliability.values)}x{len(reliability.variants)} "
              f"reliability + {len(overload.values)}x"
              f"{len(overload.variants)} overload)"))

    failed = False
    for outcome in outcomes:
        report, spec = outcome.audit, outcome.spec
        if report is None or report.passed:
            continue
        failed = True
        print(f"\n{spec.deployment} {spec.campaign} "
              f"(seed {spec.seed}) violated:")
        for check in report.violations:
            print(f"  [{check.invariant}] {check.detail}")
            for item in check.evidence:
                print(f"    evidence: {item}")
    if not failed:
        print("\nall invariants held across the sweep")
    return 1 if failed else 0


#: Every campaign command.  ``run_commands`` builds, runs and renders
#: them all the same way; ``build_parser`` registers each one with the
#: shared cache, platform and supervision flags.
COMMANDS: Dict[str, Command] = {
    "latency": Command(
        "ML training latency across variants (Fig 6)",
        (_SCALE, _iterations(10), _variant_flag(ML_VARIANTS), _JOBS_ALIAS),
        lambda args: [Grid(args.variants, _ONCE, _ml_spec)],
        _render_latency),
    "inference": Command(
        "ML inference latency (Fig 9)",
        (_SCALE, _iterations(10), _JOBS_ALIAS),
        lambda args: [Grid(WORKLOAD_VARIANTS["ml-inference"], _ONCE,
                           functools.partial(_ml_spec,
                                             workload="ml-inference"))],
        _render_inference),
    "coldstart": Command(
        "hourly cold-start campaign (Fig 10)",
        (_arg("--days", type=_positive_float, default=4.0), _JOBS_ALIAS),
        _coldstart_grids, _render_coldstart),
    "video": Command(
        "video fan-out scaling (Fig 12); use -j for worker processes",
        (_arg("--workers", type=_worker_list,
              default=[1, 5, 10, 20, 40, 80],
              help="fan-out widths to sweep (paper x-axis)"),),
        lambda args: [Grid(ORCHESTRATED, args.workers, _video_spec)],
        _render_video),
    "cost": Command(
        "monthly video cost projection (Fig 15); use -j for worker "
        "processes",
        (_arg("--workers", type=_positive_int, default=20,
              help="fan-out width of the measured deployment"),
         _arg("--runs-per-month", type=_nonnegative_int, default=30),
         _arg("--measured-runs", type=_positive_int, default=4)),
        lambda args: [Grid(ORCHESTRATED, _ONCE, _cost_spec)],
        _render_cost),
    "reliability": Command(
        "inject faults and measure the price of reliability",
        (_arg("--crash-prob", type=_probability, default=0.1,
              help="per-invocation container crash probability "
                   "(default 0.1)"),
         _arg("--sweep", type=_list_of(_probability), default=None,
              metavar="P1,P2,...",
              help="sweep several crash probabilities (overrides "
                   "--crash-prob)"),
         _arg("--error-prob", type=_probability, default=0.0,
              help="transient handler exception probability"),
         _arg("--straggler-prob", type=_probability, default=0.0,
              help="invocation straggler probability"),
         _RETRIES, _variant_flag(ORCHESTRATED), _SCALE, _iterations(5),
         _JOBS_ALIAS, _AUDIT),
        _reliability_grids, _render_reliability),
    "resilience": Command(
        "drive workloads through correlated outage windows with "
        "client-side mitigation and report SLO verdicts",
        (_arg("--outage-start", type=float, default=120.0,
              help="outage window start, simulated seconds (default 120)"),
         _arg("--outage-duration", type=float, default=60.0,
              help="outage window length in seconds (default 60)"),
         _arg("--sweep", type=_rate_list, default=None, metavar="D1,D2,...",
              help="sweep several outage durations (overrides "
                   "--outage-duration)"),
         _arg("--mode", choices=["crash", "gray"], default="crash",
              help="what the window does: crash drops warm pools and "
                   "kills in-window runs; gray slows and errors them "
                   "(default crash)"),
         _arg("--gray-factor", type=float, default=3.0,
              help="gray-mode latency multiplier (default 3)"),
         _arg("--gray-error-prob", type=_probability, default=0.2,
              help="gray-mode transient-error probability (default 0.2)"),
         _arg("--brownout", type=float, default=0.0,
              help="extra queue delay inside the window, seconds "
                   "(default 0)"),
         _arg("--partition-drop", type=_probability, default=0.0,
              help="in-window probability the broker drops a message "
                   "(default 0)"),
         _RETRIES,
         _arg("--hedge-after", type=float, default=30.0,
              help="hedge a duplicate attempt after this many seconds; "
                   "0 disables (default 30)"),
         _arg("--breaker-threshold", type=int, default=3,
              help="consecutive failures that open the circuit; 0 "
                   "disables (default 3)"),
         _arg("--breaker-timeout", type=float, default=30.0,
              help="breaker open-state dwell before a half-open probe "
                   "(default 30)"),
         _arg("--deadline-factor", type=float, default=6.0,
              help="abandon calls past this multiple of the latency "
                   "EWMA; 0 disables (default 6)"),
         _arg("--request-timeout", type=float, default=240.0,
              help="hard per-call timeout backstop, seconds (default 240)"),
         _arg("--slo-availability", type=_probability, default=0.999,
              help="availability SLO target (default 0.999)"),
         _arg("--slo-p99", type=float, default=0.0,
              help="p99 latency SLO in seconds; 0 disables (default 0)"),
         _variant_flag(ORCHESTRATED), _SCALE, _iterations(6), _JOBS_ALIAS,
         _AUDIT),
        lambda args: [Grid(args.variants,
                           args.sweep or [args.outage_duration],
                           _resilience_spec)],
        _render_resilience),
    "overload": Command(
        "sweep open-loop arrival rates past saturation: throttling, "
        "backpressure and load shedding",
        (_arg("--rates", type=_rate_list, default=[0.2, 0.5, 1.0, 2.0],
              metavar="R1,R2,...",
              help="offered arrival rates in req/s (default "
                   "0.2,0.5,1.0,2.0)"),
         _arg("--horizon", type=_positive_float, default=120.0,
              help="arrival window length in seconds (default 120)"),
         _arg("--arrival", choices=["poisson", "uniform", "bursty"],
              default="poisson",
              help="open-loop arrival process (default poisson)"),
         _variant_flag(OVERLOADED), _SCALE,
         _arg("--concurrency", type=_positive_int, default=24,
              help="AWS concurrent execution limit (default 24)"),
         _arg("--burst", type=_positive_int, default=24,
              help="AWS token-bucket burst capacity (default 24)"),
         _arg("--refill", type=float, default=4.0,
              help="AWS token-bucket refill rate per second (default 4)"),
         _arg("--max-instances", type=_positive_int, default=4,
              help="Azure scale-controller instance cap (default 4)"),
         _arg("--queue-depth", type=_positive_int, default=48,
              help="Azure dispatch/work-item queue depth bound "
                   "(default 48)"),
         _arg("--shed-deadline", type=float, default=45.0,
              help="Azure queue-wait budget in seconds before work is "
                   "shed (default 45)"),
         _arg("--gcp-max-instances", type=_positive_int, default=4,
              help="GCP Cloud Functions gen1 instance cap — one request "
                   "per instance (default 4)"),
         _JOBS_ALIAS, _AUDIT),
        lambda args: [Grid(args.variants, args.rates, _overload_spec)],
        _render_overload),
    "audit": Command(
        "verify runtime invariants (conservation, billing, delivery "
        "semantics) across chaos and overload sweeps",
        (_variant_flag(ORCHESTRATED,
                       help="reliability-sweep variants (default "
                            "AWS-Step,Az-Dorch,GCP-Flows)"),
         _SCALE,
         _iterations(3, help="measured runs per reliability campaign "
                             "(default 3)"),
         _RETRIES,
         _arg("--rates", type=_rate_list, default=[0.5, 2.0],
              metavar="R1,R2,...",
              help="overload-sweep arrival rates in req/s (default "
                   "0.5,2.0)"),
         _arg("--horizon", type=_positive_float, default=60.0,
              help="overload arrival window in seconds (default 60)"),
         _JOBS_ALIAS),
        _audit_grids, _render_audit, reports_violations=True,
        # the auditor always runs, and the overload sweep saturates a
        # small fixed capacity with Poisson arrivals
        defaults={"audit": True, "arrival": "poisson", "concurrency": 8,
                  "burst": 8, "refill": 1.0, "max_instances": 2,
                  "queue_depth": 12, "shed_deadline": 30.0,
                  "gcp_max_instances": 2}),
}

#: ``repro paper``: these commands at these settings, as one sweep
PAPER_COMMANDS = ("latency", "video", "coldstart")
PAPER_SETTINGS = {"scale": "small", "iterations": 8,
                  "variants": ML_VARIANTS, "workers": [1, 20, 80],
                  "days": 1.0}


def cmd_takeaways(args: argparse.Namespace) -> int:
    from repro.core.takeaways import (
        evaluate_ml_takeaways,
        evaluate_video_takeaways,
        render_takeaways,
    )
    takeaways = (evaluate_ml_takeaways(iterations=args.iterations,
                                       seed=args.seed)
                 + evaluate_video_takeaways(seed=args.seed))
    print(render_takeaways(takeaways))
    return 0 if all(takeaway.holds for takeaway in takeaways) else 1


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(getattr(args, "cache_dir", None))
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached campaigns from {cache.root}")
    else:
        print(f"cache at {cache.root}: {len(cache)} campaigns")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Finish an interrupted sweep by re-dispatching its recorded argv."""
    journal = SweepJournal(args.journal_path)
    try:
        manifest = journal.open()
    except JournalError as error:
        raise SystemExit(f"repro: {error}") from error
    argv = manifest.argv
    if argv is None:
        raise SystemExit(
            f"repro: journal at {journal.root} does not record the "
            f"command that created it; re-run the original command "
            f"with --journal {journal.root} --resume")
    # Point --journal at the path the user named (the journal may have
    # moved since creation) and make the reuse explicit.
    rewritten: List[str] = []
    skip_next = False
    for item in argv:
        if skip_next:
            skip_next = False
            continue
        if item == "--journal":
            rewritten += ["--journal", str(args.journal_path)]
            skip_next = True
        elif item.startswith("--journal="):
            rewritten.append(f"--journal={args.journal_path}")
        else:
            rewritten.append(item)
    if not any(item == "--journal" or item.startswith("--journal=")
               for item in rewritten):
        # The recorded command never named a journal (e.g. the sweep
        # was journaled programmatically); --resume without --journal
        # is an error, so supply the one the user pointed us at.
        rewritten += ["--journal", str(args.journal_path)]
    if "--resume" not in rewritten:
        rewritten.append("--resume")
    print(f"resuming sweep at {journal.root}: {journal.progress()}")
    return main(rewritten)


def cmd_fuzz_run(args: argparse.Namespace) -> int:
    """One deterministic fuzz session: generate, check, shrink, save."""
    from repro.core import fuzz as fuzz_mod

    _check_resume_flags(args)
    journal = getattr(args, "journal", None)
    seed = args.fuzz_seed if args.fuzz_seed is not None else args.seed
    try:
        result = fuzz_mod.run_fuzz(
            seed=seed, budget=args.budget,
            time_budget_s=args.time_budget,
            journal=journal, cache=_cache(args),
            workers=getattr(args, "jobs", 1),
            corpus_dir=args.corpus_out,
            shrink_findings=not args.no_shrink,
            argv=getattr(args, "argv", None),
            resume=getattr(args, "resume", False),
            spec_timeout_s=getattr(args, "spec_timeout", None),
            max_restarts=args.max_worker_restarts,
            log=lambda line: print(line, file=sys.stderr))
    except JournalError as error:
        raise SystemExit(f"repro: {error}") from error
    except KeyboardInterrupt:
        _interrupted_exit(journal)
    print(f"fuzz seed {seed}: {result.executed}/{result.budget} specs "
          f"checked, {len(result.findings)} finding(s)")
    if result.exhausted:
        print(f"time budget exhausted after {result.executed} of "
              f"{result.budget} specs", file=sys.stderr)
        if journal is not None:
            print(f"finish the session with: repro resume {journal}",
                  file=sys.stderr)
    for verdict in result.findings:
        spec = verdict.spec
        print(f"  #{verdict.index} {spec.deployment} {spec.campaign} "
              f"[{verdict.spec_hash[:12]}]: "
              f"{', '.join(verdict.findings)}")
    for path in result.corpus_paths:
        print(f"  minimal repro: {path}")
    return 1 if result.findings else 0


def cmd_fuzz_replay(args: argparse.Namespace) -> int:
    """Re-check every corpus entry; red (a bug came back) exits 1."""
    from repro.core import fuzz as fuzz_mod

    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print(f"no corpus at {corpus}; nothing to replay")
        return 0
    results = fuzz_mod.replay_corpus(corpus)
    if not results:
        print(f"corpus at {corpus} is empty; nothing to replay")
        return 0
    red = 0
    for result in results:
        if result.error is not None:
            red += 1
            print(f"{result.path.name}: INVALID — {result.error}")
        elif result.reproduced:
            red += 1
            print(f"{result.path.name}: RED — {result.fingerprint} "
                  f"still reproduces "
                  f"({', '.join(result.findings)})")
        else:
            print(f"{result.path.name}: green")
    print(f"{len(results) - red} of {len(results)} corpus entries "
          f"stay green")
    return 1 if red else 0


def cmd_fuzz_shrink(args: argparse.Namespace) -> int:
    """Shrink a failing spec (or repro document) to a minimal repro."""
    from repro.core import fuzz as fuzz_mod
    from repro.core.persistence import SpecValidationError, spec_from_dict

    if args.spec == "-":
        where, text = "<stdin>", sys.stdin.read()
    else:
        where = args.spec
        try:
            text = Path(args.spec).read_text()
        except OSError as error:
            raise SystemExit(f"repro: {error}") from error
    try:
        document = json.loads(text)
    except ValueError as error:
        raise SystemExit(f"repro: {where}: not JSON: {error}") from error
    fingerprint = None
    payload = document
    if isinstance(document, dict) and \
            document.get("kind") == "fuzz-repro":
        fingerprint = document.get("fingerprint")
        payload = document.get("spec")
    try:
        spec = spec_from_dict(payload)
    except SpecValidationError as error:
        raise SystemExit(f"repro: {where}: {error}") from error
    verdict = fuzz_mod.check_spec(spec)
    if verdict.ok:
        print(f"spec {verdict.spec_hash[:12]} checks clean on every "
              f"path; nothing to shrink")
        return 0
    if fingerprint not in verdict.findings:
        fingerprint = verdict.findings[0]
    minimal, spent = fuzz_mod.shrink(spec, fingerprint)
    if args.out is not None:
        path = fuzz_mod.write_repro(Path(args.out), minimal, fingerprint)
        print(f"wrote {path} after {spent} checks ({fingerprint})")
    else:
        blob = fuzz_mod.repro_document(minimal, fingerprint)
        print(json.dumps(blob, indent=2, sort_keys=True))
        print(f"shrunk in {spent} checks ({fingerprint})",
              file=sys.stderr)
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    print("Condensed paper reproduction "
          "(full version: pytest benchmarks/ --benchmark-only -s)\n")
    return run_commands(args, PAPER_COMMANDS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stateful serverless workbench — IISWC'21 reproduction")
    parser.add_argument("--seed", type=int, default=0,
                        help="testbed random seed")
    parser.add_argument("--save", metavar="PATH", default=None,
                        help="write campaign results to a JSON file "
                             "(latency command)")
    # The cache/jobs flags also work after the subcommand (the natural
    # place to type them); SUPPRESS keeps the top-level values when
    # absent.
    cache_opts = argparse.ArgumentParser(add_help=False)
    for flags, options in (
            _arg("--jobs", "-j", type=_positive_int, default=1, metavar="N",
                 help="campaign worker processes (default 1)"),
            _arg("--no-cache", action="store_true", default=False,
                 help="do not read or write the campaign cache"),
            _arg("--cache-dir", metavar="PATH", default=None,
                 help="campaign cache directory (default "
                      "$REPRO_CACHE_DIR or ~/.cache/repro/campaigns)")):
        parser.add_argument(*flags, **options)
        cache_opts.add_argument(*flags, **dict(
            options, default=argparse.SUPPRESS, help=argparse.SUPPRESS))
    # Campaign commands take a backend selection; the default (None)
    # means every registered backend.
    platform_opts = argparse.ArgumentParser(add_help=False)
    platform_opts.add_argument(
        "--platforms", "-p", type=_platforms, default=None,
        metavar="NAME,NAME,...",
        help="restrict variants to these platform backends "
             f"(default: all of {list(backend_names())})")
    # Crash-safety flags shared by every campaign command; they
    # configure the SupervisedRunner every campaign runs on.
    supervise_opts = argparse.ArgumentParser(add_help=False)
    supervise_opts.add_argument(
        "--journal", metavar="DIR", default=None,
        help="checkpoint each completed campaign to this sweep-journal "
             "directory; finish a killed sweep with `repro resume DIR`")
    supervise_opts.add_argument(
        "--resume", action="store_true",
        help="reuse an existing journal at --journal, re-running only "
             "the specs it is missing")
    supervise_opts.add_argument(
        "--spec-timeout", type=_positive_float, dest="spec_timeout",
        metavar="SECONDS", default=None,
        help="kill and retry any campaign still running after this "
             "many wall-clock seconds")
    supervise_opts.add_argument(
        "--max-worker-restarts", type=_nonnegative_int, default=2,
        metavar="N",
        help="restart budget per campaign after worker crashes, stalls "
             "or timeouts (default %(default)s)")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, command in COMMANDS.items():
        subparser = commands.add_parser(
            name, parents=[cache_opts, platform_opts, supervise_opts],
            help=command.help)
        for flags, options in command.arguments:
            subparser.add_argument(*flags, **options)
        subparser.set_defaults(
            func=functools.partial(run_commands, names=(name,)),
            **command.defaults)

    takeaways = commands.add_parser(
        "takeaways", help="re-derive the paper's key-takeaway bullets")
    takeaways.add_argument("--iterations", type=_positive_int, default=8)
    takeaways.set_defaults(func=cmd_takeaways)

    cache = commands.add_parser(
        "cache", parents=[cache_opts],
        help="inspect or clear the campaign result cache")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached campaign")
    cache.set_defaults(func=cmd_cache)

    resume = commands.add_parser(
        "resume", help="finish an interrupted sweep from its journal "
                       "(re-runs only the missing campaigns)")
    resume.add_argument("journal_path", metavar="JOURNAL",
                        help="path of the sweep-journal directory a "
                             "campaign command wrote via --journal")
    resume.set_defaults(func=cmd_resume)

    fuzz = commands.add_parser(
        "fuzz", help="deterministic campaign fuzzer: generate specs, "
                     "differentially check every execution path, shrink "
                     "and replay findings")
    fuzz_cmds = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_cmds.add_parser(
        "run", parents=[cache_opts, supervise_opts],
        help="draw specs from a seeded stream and differentially check "
             "each one (exit 1 on findings)")
    fuzz_run.add_argument("--seed", type=int, dest="fuzz_seed",
                          default=None,
                          help="fuzz stream seed (default: the "
                               "top-level --seed)")
    fuzz_run.add_argument("--budget", type=_positive_int, default=50,
                          metavar="N",
                          help="specs to draw and check (default 50)")
    fuzz_run.add_argument("--time-budget", type=_positive_float,
                          dest="time_budget", metavar="SECONDS",
                          default=None,
                          help="stop drawing new work after this many "
                               "wall-clock seconds (what ran is still "
                               "deterministic; with --journal the rest "
                               "is resumable)")
    fuzz_run.add_argument("--corpus-out", metavar="DIR", default="corpus",
                          help="write shrunk minimal reproducers here "
                               "(default ./corpus; only created on "
                               "findings)")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="save failing specs as found, without "
                               "minimizing them first")
    fuzz_run.set_defaults(func=cmd_fuzz_run)

    fuzz_replay = fuzz_cmds.add_parser(
        "replay",
        help="re-check every regression-corpus entry; exit 1 if any "
             "recorded bug reproduces again")
    fuzz_replay.add_argument("corpus", nargs="?", default="corpus",
                             metavar="DIR",
                             help="corpus directory (default ./corpus)")
    fuzz_replay.set_defaults(func=cmd_fuzz_replay)

    fuzz_shrink = fuzz_cmds.add_parser(
        "shrink",
        help="minimize a failing spec while preserving its failure "
             "fingerprint; prints a pasteable repro document")
    fuzz_shrink.add_argument("spec", metavar="SPEC.json",
                             help="a spec or fuzz-repro JSON file, or "
                                  "`-` for stdin")
    fuzz_shrink.add_argument("--out", metavar="PATH", default=None,
                             help="write the repro document here instead "
                                  "of stdout")
    fuzz_shrink.set_defaults(func=cmd_fuzz_shrink)

    paper = commands.add_parser(
        "paper", parents=[cache_opts, platform_opts],
        help="condensed run of the main experiments")
    paper.set_defaults(func=cmd_paper, **PAPER_SETTINGS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Remember the raw argv so a --journal sweep's manifest can record
    # the command that created it (what `repro resume` re-dispatches).
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
