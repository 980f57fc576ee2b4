"""Fault injection: deterministic chaos for reliability campaigns.

Serverless platforms run on preemptible infrastructure; containers die
mid-execution, messages arrive late or twice, whole hosts disappear.
The durable programming model's value proposition is surviving that, and
the paper's recovery mechanisms (Step Functions Retry/Catch, Durable
Functions event sourcing) exist precisely for these scenarios.

This module provides two layers:

* :class:`FaultPlan` — a declarative, frozen description of which faults
  to inject: transient handler exceptions, container crashes at a drawn
  *fraction* of the invocation's runtime, invocation stragglers (latency
  multipliers), queue message delay/duplication (at-least-once delivery),
  scheduled host crashes, and *correlated* failures — zone-outage windows
  (explicit or drawn from the ``faults.outage`` stream) during which the
  platform either hard-crashes (``outage_mode="crash"``: warm pools drop
  and in-window invocations die mid-run) or degrades *gray*
  (``outage_mode="gray"``: latency multipliers plus elevated error
  rates), with optional storage brownouts (extra delivery delay) and
  partial network partitions (the broker silently dropping messages)
  scoped to the same windows.  Plans round-trip through sorted key/value
  items so they can ride inside a hashable
  :class:`~repro.core.parallel.CampaignSpec`.
* :class:`FaultInjector` — the runtime: wraps handlers, draws every fault
  decision from named :class:`~repro.sim.rng.RandomStreams` streams
  (``faults.fn.<name>``, ``faults.queue.<name>``, ``faults.outage``) so
  faulted campaigns are bit-identical given ``(seed, plan)``, and
  accounts what the chaos cost (crashes, retries, wasted GB-s billed to
  doomed attempts, browned-out and partition-dropped messages).

The zero-argument back-compat constructor
``FaultInjector(crash_probability=p)`` keeps the original single-knob
API used by tests and benchmarks: crash decisions then draw from the
invocation's own ``ctx.rng``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.platforms.items import from_items, to_items
from repro.sim.kernel import Timeout


class ContainerCrash(RuntimeError):
    """The execution environment died mid-run."""


class TransientFault(RuntimeError):
    """A one-off handler exception (the platform would retry this)."""


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every fault mode to inject.

    All probabilities are per-invocation (or per-message for the queue
    modes) and drawn from deterministic per-target RNG streams.  A plan
    with every probability at zero and no host crashes is *disabled* —
    the platforms behave bit-identically to a fault-free run.

    The ``retry_*`` fields do not inject faults; they synthesize a
    default retry policy on workflow states/activities that configured
    none, so reliability campaigns measure the *price* of absorbing the
    chaos rather than just failing fast.  ``retry_max_attempts`` counts
    total attempts (1 disables synthesis).
    """

    #: probability a wrapped handler crashes mid-run
    crash_probability: float = 0.0
    #: the crash point is drawn uniformly in this fraction of the
    #: invocation's (last observed) runtime
    crash_fraction_min: float = 0.0
    crash_fraction_max: float = 1.0
    #: probability a wrapped handler raises before doing any work
    error_probability: float = 0.0
    #: probability an invocation runs ``straggler_factor`` times slower
    straggler_probability: float = 0.0
    straggler_factor: float = 4.0
    #: probability an enqueued message is delayed by ``queue_delay_s``
    queue_delay_probability: float = 0.0
    queue_delay_s: float = 5.0
    #: probability an enqueued message is delivered twice
    queue_duplication_probability: float = 0.0
    #: whether the task hub dedupes duplicate completion messages while
    #: duplication is active.  Disabling it with duplication enabled
    #: models a broken at-least-once consumer — double-processed (and
    #: double-billed) completions the invariant auditor must catch.
    completion_dedupe: bool = True
    #: synthesized default retry policy (total attempts; <2 disables)
    retry_max_attempts: int = 0
    retry_interval_s: float = 2.0
    retry_backoff: float = 2.0
    #: absolute simulated times at which the host crashes
    host_crash_times: Tuple[float, ...] = ()
    #: function names the handler faults apply to (empty = all)
    targets: Tuple[str, ...] = ()
    #: explicit correlated-outage windows as ``(start, duration)`` pairs
    #: in absolute simulated seconds
    outage_windows: Tuple[Tuple[float, float], ...] = ()
    #: number of additional windows drawn from the ``faults.outage``
    #: stream: starts uniform in ``[0, outage_horizon_s)``, each lasting
    #: ``outage_duration_s`` (overlaps merge deterministically)
    outage_count: int = 0
    outage_horizon_s: float = 0.0
    outage_duration_s: float = 0.0
    #: what an outage window does to the zone: ``"crash"`` drops every
    #: platform's warm pools at window start and kills in-window
    #: invocations mid-run; ``"gray"`` degrades instead of crashing
    outage_mode: str = "crash"
    #: gray degradation: in-window latency multiplier and elevated
    #: transient-error rate on wrapped handlers
    gray_latency_factor: float = 1.0
    gray_error_probability: float = 0.0
    #: storage/queue brownout: extra visibility delay on messages
    #: enqueued during an outage window
    brownout_delay_s: float = 0.0
    #: partial network partition: probability the broker silently drops
    #: a message enqueued during an outage window (the client call still
    #: succeeds and is metered)
    partition_drop_probability: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "host_crash_times",
                           tuple(sorted(float(t)
                                        for t in self.host_crash_times)))
        object.__setattr__(self, "targets", tuple(self.targets))
        windows = []
        for window in self.outage_windows:
            try:
                start, duration = window
            except (TypeError, ValueError):
                raise ValueError(
                    f"outage_windows entries are (start, duration) "
                    f"pairs, got {window!r}") from None
            windows.append((float(start), float(duration)))
        windows.sort()
        object.__setattr__(self, "outage_windows", tuple(windows))
        for name in ("crash_probability", "error_probability",
                     "straggler_probability", "queue_delay_probability",
                     "queue_duplication_probability",
                     "gray_error_probability",
                     "partition_drop_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not (0.0 <= self.crash_fraction_min
                <= self.crash_fraction_max <= 1.0):
            raise ValueError(
                "crash fractions must satisfy 0 <= min <= max <= 1")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.queue_delay_s < 0:
            raise ValueError("queue_delay_s must be non-negative")
        if self.retry_max_attempts < 0:
            raise ValueError("retry_max_attempts must be non-negative")
        if self.retry_interval_s <= 0:
            raise ValueError("retry_interval_s must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if any(t < 0 for t in self.host_crash_times):
            raise ValueError("host_crash_times must be non-negative")
        if len(set(self.host_crash_times)) != len(self.host_crash_times):
            raise ValueError(
                "host_crash_times must not repeat: overlapping "
                "host-crash schedules would crash the same host twice "
                "in the same instant")
        for start, duration in self.outage_windows:
            if start < 0:
                raise ValueError("outage window starts must be "
                                 f"non-negative, got {start}")
            if duration <= 0:
                raise ValueError("outage window durations must be "
                                 f"positive, got {duration}")
        for (start, duration), (next_start, _) in zip(
                self.outage_windows, self.outage_windows[1:]):
            if next_start < start + duration:
                raise ValueError(
                    f"outage_windows overlap: window starting at "
                    f"{next_start} begins inside the window "
                    f"[{start}, {start + duration})")
        if self.outage_count < 0:
            raise ValueError("outage_count must be non-negative")
        if self.outage_horizon_s < 0 or self.outage_duration_s < 0:
            raise ValueError(
                "outage horizon/duration must be non-negative")
        if self.outage_count > 0 and (self.outage_horizon_s <= 0
                                      or self.outage_duration_s <= 0):
            raise ValueError(
                "drawn outages need outage_horizon_s > 0 and "
                "outage_duration_s > 0")
        if self.outage_mode not in ("crash", "gray"):
            raise ValueError(
                f"outage_mode must be 'crash' or 'gray', "
                f"got {self.outage_mode!r}")
        if self.gray_latency_factor < 1.0:
            raise ValueError("gray_latency_factor must be >= 1")
        if self.brownout_delay_s < 0:
            raise ValueError("brownout_delay_s must be non-negative")

    # -- activation --------------------------------------------------------------

    @property
    def handler_faults(self) -> bool:
        """Any *independent* per-invocation fault mode active?"""
        return (self.crash_probability > 0 or self.error_probability > 0
                or self.straggler_probability > 0)

    @property
    def outage_faults(self) -> bool:
        """Any correlated outage windows declared or drawn?"""
        return bool(self.outage_windows) or self.outage_count > 0

    @property
    def wraps_handlers(self) -> bool:
        """Should the platforms wrap handlers at registration time?

        True for independent handler faults *and* for outage windows:
        both modes act at invocation time inside the wrapped handler
        (crash-mode windows kill in-window runs, gray-mode windows slow
        and error them).
        """
        return self.handler_faults or self.outage_faults

    @property
    def queue_faults(self) -> bool:
        """Any per-message fault mode active?"""
        return (self.queue_delay_probability > 0
                or self.queue_duplication_probability > 0
                or (self.outage_faults
                    and (self.brownout_delay_s > 0
                         or self.partition_drop_probability > 0)))

    @property
    def enabled(self) -> bool:
        """Does this plan inject anything at all?"""
        return (self.wraps_handlers or self.queue_faults
                or bool(self.host_crash_times))

    def applies_to(self, name: str) -> bool:
        """Do the handler faults target function ``name``?"""
        return not self.targets or name in self.targets

    # -- spec round-trip -----------------------------------------------------------

    def to_items(self) -> Tuple[Tuple[str, Any], ...]:
        """Non-default fields as sorted key/value pairs (spec-friendly)."""
        return to_items(self)

    @classmethod
    def from_items(cls, items: Iterable[Tuple[str, Any]]) -> "FaultPlan":
        """Build a plan from key/value pairs, rejecting unknown fields."""
        return from_items(cls, items)


@dataclass
class FaultInjector:
    """Runtime fault injection plus chaos accounting.

    ``FaultInjector(crash_probability=p)`` is the original single-knob
    API (crash decisions drawn from ``ctx.rng``); passing ``plan`` and
    ``streams`` activates the full :class:`FaultPlan` with deterministic
    per-target streams.

    A crashed invocation spends (and the platform bills) the partial
    execution time up to the drawn crash point, but produces no result;
    the caller sees :class:`ContainerCrash`.

    >>> injector = FaultInjector(crash_probability=0.0)
    >>> injector.crashes
    0
    """

    crash_probability: float = 0.1
    #: stream name used to draw crash decisions (stable across runs)
    stream: str = "faults"
    plan: Optional[FaultPlan] = None
    streams: Any = None
    invocations: int = field(default=0, init=False)
    crashes: int = field(default=0, init=False)
    transient_errors: int = field(default=0, init=False)
    stragglers: int = field(default=0, init=False)
    delayed_messages: int = field(default=0, init=False)
    duplicated_messages: int = field(default=0, init=False)
    host_crashes: int = field(default=0, init=False)
    #: retries the platforms performed while this injector was attached
    platform_retries: int = field(default=0, init=False)
    #: compute spent on invocations that then crashed
    wasted_compute_s: float = field(default=0.0, init=False)
    wasted_gb_s: float = field(default=0.0, init=False)
    host_recovery_times: List[float] = field(default_factory=list, init=False)
    #: correlated-outage accounting
    outage_host_drops: int = field(default=0, init=False)
    outage_crashes: int = field(default=0, init=False)
    gray_slowdowns: int = field(default=0, init=False)
    gray_errors: int = field(default=0, init=False)
    browned_out_messages: int = field(default=0, init=False)
    dropped_messages: int = field(default=0, init=False)

    def __post_init__(self):
        if self.plan is None:
            if not 0.0 <= self.crash_probability <= 1.0:
                raise ValueError("crash_probability must lie in [0, 1]")
            self.plan = FaultPlan(crash_probability=self.crash_probability)
        else:
            self.crash_probability = self.plan.crash_probability
        #: last observed successful runtime per wrapped function, used to
        #: place crash points as a fraction of a *known* duration
        self._runtimes: Dict[str, float] = {}
        #: materialized absolute outage windows as (start, end) pairs
        self.outage_windows: Tuple[Tuple[float, float], ...] = (
            self._materialize_windows())

    # -- correlated outage windows -------------------------------------------------

    def _materialize_windows(self) -> Tuple[Tuple[float, float], ...]:
        """Resolve the plan's outage windows to absolute (start, end).

        Explicit windows are taken verbatim; drawn windows come from the
        ``faults.outage`` stream (starts uniform over the horizon), so
        the schedule is a pure function of ``(seed, plan)``.  Overlaps
        among drawn windows merge into one longer window.
        """
        plan = self.plan
        windows = [(start, start + duration)
                   for start, duration in plan.outage_windows]
        if plan.outage_count > 0 and self.streams is not None:
            rng = self.streams.get("faults.outage")
            starts = sorted(float(rng.random()) * plan.outage_horizon_s
                            for _ in range(plan.outage_count))
            windows.extend((start, start + plan.outage_duration_s)
                           for start in starts)
        windows.sort()
        merged: List[Tuple[float, float]] = []
        for start, end in windows:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return tuple(merged)

    def in_outage(self, now: float) -> bool:
        """Is ``now`` inside any materialized outage window?"""
        return any(start <= now < end
                   for start, end in self.outage_windows)

    @property
    def crash_outage_starts(self) -> Tuple[float, ...]:
        """Window starts at which warm infrastructure drops (crash mode)."""
        if self.plan.outage_mode != "crash":
            return ()
        return tuple(start for start, _ in self.outage_windows)

    # -- runtime knowledge --------------------------------------------------------

    def record_runtime(self, name: str, seconds: float) -> None:
        """Remember how long ``name`` runs (crash points scale off this)."""
        if seconds > 0:
            self._runtimes[name] = seconds

    def _rng_for(self, ctx, name: str):
        if self.streams is not None:
            return self.streams.get(f"faults.fn.{name}")
        return ctx.rng

    # -- handler wrapping ---------------------------------------------------------

    def wrap(self, handler: Callable[..., Generator],
             name: Optional[str] = None) -> Callable[..., Generator]:
        """Return a fault-prone version of ``handler``."""
        injector = self
        plan = self.plan
        label = name or getattr(handler, "__name__", "handler")

        def faulty(ctx, event) -> Generator:
            injector.invocations += 1
            rng = injector._rng_for(ctx, label)
            if (plan.error_probability > 0
                    and rng.random() < plan.error_probability):
                injector.transient_errors += 1
                raise TransientFault(f"transient fault in {label}")
            crash_fraction = None
            if (plan.crash_probability > 0
                    and rng.random() < plan.crash_probability):
                injector.crashes += 1
                span = plan.crash_fraction_max - plan.crash_fraction_min
                crash_fraction = (plan.crash_fraction_min
                                  + rng.random() * span)
            if (plan.straggler_probability > 0
                    and rng.random() < plan.straggler_probability):
                injector.stragglers += 1
                ctx.cpu_factor *= plan.straggler_factor
            if injector.in_outage(ctx.env.now):
                if plan.outage_mode == "gray":
                    if plan.gray_latency_factor > 1.0:
                        injector.gray_slowdowns += 1
                        ctx.cpu_factor *= plan.gray_latency_factor
                    if (plan.gray_error_probability > 0
                            and rng.random()
                            < plan.gray_error_probability):
                        injector.gray_errors += 1
                        raise TransientFault(
                            f"gray degradation error in {label}")
                elif crash_fraction is None:
                    # Crash-mode window: every in-window invocation dies
                    # at a drawn fraction of its runtime.
                    injector.outage_crashes += 1
                    span = (plan.crash_fraction_max
                            - plan.crash_fraction_min)
                    crash_fraction = (plan.crash_fraction_min
                                      + rng.random() * span)
            if crash_fraction is None:
                started = ctx.env.now
                result = yield from handler(ctx, event)
                injector.record_runtime(label, ctx.env.now - started)
                return result
            yield from injector._crash_at_fraction(
                ctx, handler, event, label, crash_fraction)

        faulty.__name__ = f"faulty_{label}"
        return faulty

    def _crash_at_fraction(self, ctx, handler, event, label: str,
                           fraction: float) -> Generator:
        """Drive ``handler`` until ``fraction`` of its expected runtime,
        then die.

        The crash point is ``fraction`` × the function's last observed
        runtime; until one is known the handler runs to completion and
        the result is discarded (the whole duration is the crash point).
        Time spent before the crash is spent — and billed — like on a
        real platform.
        """
        env = ctx.env
        started = env.now
        known = self._runtimes.get(label)
        deadline = (started + fraction * known if known is not None
                    else float("inf"))
        gen = handler(ctx, event)
        try:
            item = next(gen)
            while True:
                if isinstance(item, Timeout) and \
                        env.now + item.delay >= deadline:
                    # The handler would sleep past the crash point:
                    # sleep only up to it.  The abandoned timeout pops
                    # harmlessly (no callbacks were registered on it).
                    remaining = deadline - env.now
                    if remaining > 0:
                        yield env.timeout(remaining)
                    break
                try:
                    outcome = yield item
                except BaseException as interrupt:
                    # Platform-level interrupts (execution timeouts) are
                    # forwarded; if the handler does not absorb them they
                    # propagate and the platform accounts the failure.
                    item = gen.throw(interrupt)
                    continue
                if env.now >= deadline:
                    break
                item = gen.send(outcome)
        except StopIteration:
            # Completed before the crash point fired: the container still
            # dies and the result is lost.
            self.record_runtime(label, env.now - started)
        finally:
            gen.close()
        elapsed = env.now - started
        self.wasted_compute_s += elapsed
        self.wasted_gb_s += elapsed * ctx.spec.billing_memory_mb / 1024.0
        raise ContainerCrash(f"container crashed during {label}")

    # -- queue faults --------------------------------------------------------------

    def draw_queue_faults(self, queue_name: str) -> Tuple[float, bool]:
        """``(delay_s, duplicate)`` for one enqueued message.

        Returns ``(0.0, False)`` unless queue faults are active and the
        injector has deterministic streams to draw from.
        """
        plan = self.plan
        if self.streams is None or not plan.queue_faults:
            return 0.0, False
        rng = self.streams.get(f"faults.queue.{queue_name}")
        delay = 0.0
        duplicate = False
        if (plan.queue_delay_probability > 0
                and rng.random() < plan.queue_delay_probability):
            delay = plan.queue_delay_s
            self.delayed_messages += 1
        if (plan.queue_duplication_probability > 0
                and rng.random() < plan.queue_duplication_probability):
            duplicate = True
            self.duplicated_messages += 1
        return delay, duplicate

    def draw_message_chaos(self, queue_name: str,
                           now: float) -> Tuple[float, bool, bool]:
        """``(delay_s, duplicate, dropped)`` for one enqueued message.

        The independent delay/duplication draws always happen (stream
        alignment with :meth:`draw_queue_faults`); brownout delay and
        partition drops apply only while ``now`` sits inside an outage
        window.  A dropped message supersedes delay and duplication.
        """
        plan = self.plan
        delay, duplicate = self.draw_queue_faults(queue_name)
        if self.streams is None or not self.in_outage(now):
            return delay, duplicate, False
        if plan.brownout_delay_s > 0:
            delay += plan.brownout_delay_s
            self.browned_out_messages += 1
        if plan.partition_drop_probability > 0:
            rng = self.streams.get(f"faults.queue.{queue_name}")
            if rng.random() < plan.partition_drop_probability:
                self.dropped_messages += 1
                return 0.0, False, True
        return delay, duplicate, False

    # -- observability -------------------------------------------------------------

    @property
    def observed_crash_rate(self) -> float:
        """Fraction of invocations that crashed so far."""
        if self.invocations == 0:
            return 0.0
        return self.crashes / self.invocations
