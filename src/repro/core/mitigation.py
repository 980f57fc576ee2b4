"""Client-side mitigation policies: breakers, hedging, deadlines.

Production serverless clients do not call a degraded platform naively —
they wrap every invoke in resilience middleware.  This module simulates
that middleware so resilience campaigns can price it:

* **Circuit breaker** — classic closed/open/half-open per
  ``(platform, function)`` deployment.  A streak of failures opens the
  circuit; while open, calls short-circuit with
  :class:`CircuitOpenError` (cheap, fast, and load-shedding for the
  struggling backend); after a seeded recovery timeout a limited number
  of half-open probes decide whether to close again.  Probe timing draws
  from the ``mitigation.<label>`` stream so runs stay bit-identical.
* **Request hedging** — after ``hedge_after_s`` without a response, a
  duplicate attempt launches; first winner cancels the rest.  The
  engine accounts what the lost races cost (``hedge_overspend_gb_s``:
  GB-s billed to cancelled attempts), because hedging trades money for
  tail latency and the campaign must show the bill.
* **Adaptive deadlines** — a per-engine EWMA of observed latency sets
  the abandon point at ``deadline_factor ×`` the estimate (floored at
  ``deadline_min_s``); a hard ``request_timeout_s`` always backstops it
  so a partition-dropped message cannot hang a campaign forever.

:class:`MitigationPolicy` is frozen and picklable and round-trips
through sorted items so it can ride inside a hashable
:class:`~repro.core.parallel.CampaignSpec`;
:class:`MitigationEngine` is the per-deployment runtime, driven through
:meth:`~repro.platforms.backend.PlatformBackend.mitigated_invoke` so
every registered backend gets the whole layer for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.platforms.items import from_items, to_items
from repro.sim.kernel import Interrupt


class CircuitOpenError(RuntimeError):
    """The circuit breaker is open: the call was never attempted."""


class MitigationTimeout(RuntimeError):
    """Every in-flight attempt was abandoned at the deadline."""


@dataclass(frozen=True)
class MitigationPolicy:
    """Declarative description of the client-side mitigation stack.

    Every knob at its default (zero) disables that mechanism; only the
    hard ``request_timeout_s`` backstop is always on.  The default
    policy therefore behaves like a plain invoke with a generous cap.
    """

    #: consecutive failures that open the breaker (0 disables it)
    breaker_failure_threshold: int = 0
    #: base open-state dwell before a half-open probe (the actual dwell
    #: adds up to 10% seeded jitter so fleets do not probe in lockstep)
    breaker_recovery_timeout_s: float = 30.0
    #: successful probes required to close again
    breaker_half_open_probes: int = 1
    #: launch a duplicate attempt after this long without a response
    #: (0 disables hedging)
    hedge_after_s: float = 0.0
    #: duplicate attempts allowed per call
    max_hedges: int = 1
    #: adaptive deadline at ``deadline_factor ×`` the latency EWMA
    #: (0 disables; the estimate floors at ``deadline_min_s``)
    deadline_factor: float = 0.0
    deadline_min_s: float = 1.0
    #: hard per-call timeout, always enforced
    request_timeout_s: float = 300.0

    def __post_init__(self):
        if not self.breaker_failure_threshold >= 0:
            raise ValueError(
                "breaker_failure_threshold must be non-negative")
        if not self.breaker_recovery_timeout_s > 0:
            raise ValueError(
                "breaker_recovery_timeout_s must be positive")
        if not self.breaker_half_open_probes >= 1:
            raise ValueError("breaker_half_open_probes must be >= 1")
        if not self.hedge_after_s >= 0:
            raise ValueError("hedge_after_s must be non-negative")
        if not self.max_hedges >= 1:
            raise ValueError("max_hedges must be >= 1")
        if not self.deadline_factor >= 0:
            raise ValueError("deadline_factor must be non-negative")
        if not self.deadline_min_s > 0:
            raise ValueError("deadline_min_s must be positive")
        if not self.request_timeout_s > 0:
            raise ValueError("request_timeout_s must be positive")

    @property
    def enabled(self) -> bool:
        """Any mechanism beyond the hard backstop active?"""
        return (self.breaker_failure_threshold > 0
                or self.hedge_after_s > 0
                or self.deadline_factor > 0)

    # -- spec round-trip -----------------------------------------------------------

    def to_items(self) -> Tuple[Tuple[str, Any], ...]:
        """Non-default fields as sorted key/value pairs (spec-friendly)."""
        return to_items(self)

    @classmethod
    def from_items(cls,
                   items: Iterable[Tuple[str, Any]]) -> "MitigationPolicy":
        """Build a policy from key/value pairs, rejecting unknown fields."""
        return from_items(cls, items)


class _Attempt:
    """One in-flight (possibly hedged) attempt's outcome slot."""

    __slots__ = ("index", "proc", "ok", "value", "error", "cancelled")

    def __init__(self, index: int):
        self.index = index
        self.proc = None
        self.ok = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.cancelled = False

    @property
    def settled(self) -> bool:
        return self.ok or self.error is not None or self.cancelled


@dataclass
class MitigationEngine:
    """Per-deployment mitigation runtime with chaos-era accounting.

    One engine guards one ``(platform, function)`` pair; breaker state
    and the latency EWMA persist across calls like a client library's.
    All timing draws come from the ``mitigation.<label>`` stream so
    campaigns stay bit-identical given ``(seed, policy)``.
    """

    policy: MitigationPolicy
    env: Any
    streams: Any
    label: str
    #: reads the platform's cumulative billed GB-s; sampled around
    #: hedge-loser cancellation to price the overspend
    gb_s_probe: Callable[[], float] = lambda: 0.0

    # accounting
    requests: int = field(default=0, init=False)
    hedges_launched: int = field(default=0, init=False)
    hedge_wins: int = field(default=0, init=False)
    hedges_cancelled: int = field(default=0, init=False)
    hedge_overspend_gb_s: float = field(default=0.0, init=False)
    breaker_opens: int = field(default=0, init=False)
    short_circuits: int = field(default=0, init=False)
    breaker_probes: int = field(default=0, init=False)
    deadline_abandons: int = field(default=0, init=False)
    request_timeouts: int = field(default=0, init=False)

    def __post_init__(self):
        self._rng = (self.streams.get(f"mitigation.{self.label}")
                     if self.streams is not None else None)
        self._state = "closed"
        self._failure_streak = 0
        self._probe_at = 0.0
        self._probes_left = 0
        self._ewma: Optional[float] = None

    # -- breaker state machine -----------------------------------------------------

    @property
    def breaker_state(self) -> str:
        return self._state

    def _admit(self) -> bool:
        if self.policy.breaker_failure_threshold <= 0:
            return True
        if self._state == "closed":
            return True
        if self._state == "open":
            if self.env.now < self._probe_at:
                return False
            self._state = "half_open"
            self._probes_left = self.policy.breaker_half_open_probes
        # half-open: admit only the configured probe budget
        if self._probes_left <= 0:
            return False
        self._probes_left -= 1
        self.breaker_probes += 1
        return True

    def _open_breaker(self) -> None:
        self._state = "open"
        self.breaker_opens += 1
        jitter = self._rng.random() if self._rng is not None else 0.0
        self._probe_at = (self.env.now
                          + self.policy.breaker_recovery_timeout_s
                          * (1.0 + 0.1 * jitter))

    def _record_success(self, latency: float) -> None:
        self._failure_streak = 0
        if self._state in ("half_open", "open"):
            self._state = "closed"
        alpha = 0.3
        self._ewma = (latency if self._ewma is None
                      else alpha * latency + (1.0 - alpha) * self._ewma)

    def _record_failure(self) -> None:
        if self.policy.breaker_failure_threshold <= 0:
            return
        self._failure_streak += 1
        if (self._state == "half_open"
                or self._failure_streak
                >= self.policy.breaker_failure_threshold):
            self._open_breaker()

    # -- deadlines ------------------------------------------------------------------

    def _effective_deadline(self) -> Tuple[float, bool]:
        """``(seconds, adaptive)`` for this call."""
        hard = self.policy.request_timeout_s
        if self.policy.deadline_factor > 0 and self._ewma is not None:
            adaptive = max(self.policy.deadline_min_s,
                           self.policy.deadline_factor * self._ewma)
            if adaptive < hard:
                return adaptive, True
        return hard, False

    # -- the call path ----------------------------------------------------------------

    def _guarded(self, factory: Callable[[], Generator],
                 slot: _Attempt) -> Generator:
        """Run one attempt, absorbing its outcome into ``slot``.

        The attempt process itself always succeeds as a kernel event, so
        losing racers can never crash the dispatch loop; the engine
        reads the slots instead of the process failure values.
        """
        try:
            slot.value = yield from factory()
            slot.ok = True
        except Interrupt:
            slot.cancelled = True
        except Exception as error:
            slot.error = error

    def call(self, factory: Callable[[], Generator]) -> Generator:
        """Invoke ``factory()`` under the policy; drive with ``yield from``.

        Returns the winning attempt's value, or raises
        :class:`CircuitOpenError` (breaker open),
        :class:`MitigationTimeout` (deadline hit), or the first
        attempt's own error when every attempt failed.
        """
        policy = self.policy
        env = self.env
        self.requests += 1
        if not self._admit():
            self.short_circuits += 1
            raise CircuitOpenError(
                f"circuit open for {self.label}: short-circuited "
                f"(probe at t={self._probe_at:.1f}s)")

        started = env.now
        deadline_s, adaptive = self._effective_deadline()
        deadline_at = started + deadline_s
        hedge_budget = policy.max_hedges if policy.hedge_after_s > 0 else 0
        next_hedge_at = (started + policy.hedge_after_s
                         if hedge_budget > 0 else None)

        attempts: List[_Attempt] = []

        def launch() -> None:
            slot = _Attempt(len(attempts))
            slot.proc = env.process(self._guarded(factory, slot))
            attempts.append(slot)

        launch()
        while True:
            winner = next((slot for slot in attempts if slot.ok), None)
            if winner is not None:
                self._record_success(env.now - started)
                losers = [slot for slot in attempts
                          if slot.proc.is_alive]
                if winner.index > 0:
                    self.hedge_wins += 1
                if losers:
                    before = self.gb_s_probe()
                    for slot in losers:
                        slot.proc.interrupt(cause="hedge-lost")
                        slot.proc.defuse()
                        self.hedges_cancelled += 1
                    # Let the interrupts unwind (and bill) now.
                    yield env.timeout(0)
                    self.hedge_overspend_gb_s += max(
                        0.0, self.gb_s_probe() - before)
                return winner.value
            alive = [slot for slot in attempts if slot.proc.is_alive]
            if not alive:
                # Every attempt settled without a winner: surface the
                # primary attempt's error (deterministic order).
                self._record_failure()
                errors = [slot.error for slot in attempts
                          if slot.error is not None]
                if errors:
                    raise errors[0]
                raise MitigationTimeout(
                    f"every attempt of {self.label} was cancelled")
            if env.now >= deadline_at:
                for slot in alive:
                    slot.proc.interrupt(cause="deadline")
                    slot.proc.defuse()
                yield env.timeout(0)
                if adaptive:
                    self.deadline_abandons += 1
                else:
                    self.request_timeouts += 1
                self._record_failure()
                raise MitigationTimeout(
                    f"{self.label} abandoned after {deadline_s:.1f}s "
                    f"({'adaptive deadline' if adaptive else 'hard cap'})")
            waits = [slot.proc for slot in alive]
            hedge_timer = None
            if hedge_budget > 0 and next_hedge_at is not None:
                hedge_timer = env.timeout(
                    max(0.0, next_hedge_at - env.now))
                waits.append(hedge_timer)
            deadline_timer = env.timeout(max(0.0, deadline_at - env.now))
            waits.append(deadline_timer)
            result = yield env.any_of(waits)
            if (hedge_timer is not None and hedge_timer in result
                    and not any(slot.ok for slot in attempts)):
                self.hedges_launched += 1
                hedge_budget -= 1
                launch()
                next_hedge_at = (env.now + policy.hedge_after_s
                                 if hedge_budget > 0 else None)
            # Completions, errors and the deadline are handled at the
            # top of the loop so every exit shares one code path.
