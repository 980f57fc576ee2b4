"""Core event loop for the discrete-event simulation kernel.

The design follows the classic process-interaction style: simulation
processes are generator functions that yield :class:`Event` objects.  The
:class:`Environment` keeps a priority queue of scheduled events ordered by
``(time, priority, sequence)`` and resumes each waiting process when the
event it yielded is triggered.

Only virtual time exists here; nothing sleeps on the wall clock.  A four-day
cold-start campaign therefore costs only as many event dispatches as it
schedules.

This module is the hot path of every campaign, so it trades a little
repetition for dispatch rate: all classes carry ``__slots__``, the
frequent constructors (:class:`Timeout`, :class:`Initialize`) and
triggers push onto the queue directly instead of going through
:meth:`Environment.schedule`, and queue entries are ``(time, order,
event)`` 3-tuples where ``order`` packs ``(priority, sequence)`` into one
integer.  ``benchmarks/test_kernel_throughput.py`` tracks the events/sec
budget against the frozen seed kernel.

:meth:`Environment.run` is the one dispatch loop: ``run()``,
``run(until=time)`` and ``run(until=event)`` all drive it.  Two fast
paths remain, both bit-identical to the original dispatch order (the
total order over ``(time, priority, sequence)`` keys is unchanged):

* **Immediate-event batching.**  Events scheduled at the current clock
  time (``succeed``/``fail``/``trigger``, :class:`Initialize`,
  zero-delay timeouts) skip the heap entirely and land on two FIFO
  deques (urgent / normal).  Appending is O(1) instead of O(log n), and
  the dispatch loop drains a whole same-timestamp batch with O(1) pops,
  comparing against the heap head only to preserve the exact global
  ``(time, order)`` sequence.
* **Inlined process stepping.**  One dispatch shape is inlined: exactly
  one callback, and it is a :meth:`Process._resume` bound method.  The
  loop steps that generator itself, eliding one Python frame per
  dispatch; every other shape, condition checks included, calls its
  callbacks.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import MethodType
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

#: Event scheduling priorities.  Lower sorts earlier at equal times.
URGENT = 0
NORMAL = 1

#: Queue entries order by ``priority * _PRIORITY_STRIDE + sequence`` so a
#: single integer comparison replaces the old (priority, sequence) pair.
#: 2**53 keeps every sequence number exactly representable and leaves
#: priorities dominant.
_PRIORITY_STRIDE = 2 ** 53


class SimulationError(Exception):
    """Raised for kernel misuse (e.g. running a finished environment)."""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupt cause is available as :attr:`cause`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """An event that may be waited on by processes.

    Events have three observable states: *pending* (created, not yet
    triggered), *triggered* (scheduled on the event queue with a value),
    and *processed* (callbacks have run).  A process that yields a
    triggered-or-processed event resumes immediately on the next dispatch.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        #: set when a failure value has been retrieved or defused
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception for failed events)."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        env = self.env
        sequence = env._sequence
        env._ready.append((_PRIORITY_STRIDE + sequence, self))
        env._sequence = sequence + 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another event (chaining)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # The ordering compare (not ``delay < 0``) also rejects NaN,
        # which would poison the heap invariant.
        if not delay >= 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        sequence = env._sequence
        if delay:
            heappush(env._queue,
                     (env._now + delay, _PRIORITY_STRIDE + sequence, self))
        else:
            env._ready.append((_PRIORITY_STRIDE + sequence, self))
        env._sequence = sequence + 1


class Initialize(Event):
    """Internal event that starts a newly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        sequence = env._sequence
        env._urgent.append((sequence, self))   # URGENT
        env._sequence = sequence + 1


class Process(Event):
    """A running simulation process wrapping a generator.

    A process is itself an event that triggers when the generator returns
    (successfully, with the ``StopIteration`` value) or raises.
    """

    __slots__ = ("_generator", "_send", "_target", "__weakref__")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        # The bound ``send`` is cached because resuming is the single
        # hottest call in the dispatch loop.
        self._send = generator.send
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def name(self) -> str:
        """The wrapped generator function's name (for diagnostics)."""
        return getattr(self._generator, "__name__", repr(self._generator))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env.schedule(event, priority=URGENT)
        # Detach from the event the process was waiting on, if any.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value of the triggered event."""
        env = self.env
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as error:
                self._ok = False
                self._value = error
                env.schedule(self)
                break

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                error = SimulationError(
                    f"process {self.name} yielded a non-event: {next_event!r}")
                self._ok = False
                self._value = error
                env.schedule(self)
                break

            if callbacks is not None:
                # Event is pending or triggered-but-unprocessed: wait for it.
                callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: resume immediately with its value.
            event = next_event

        env._active_process = None


class ConditionValue:
    """Mapping from events to values for :class:`AllOf`/:class:`AnyOf`."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(event)
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> list:
        return [event._value for event in self.events]

    def __repr__(self) -> str:
        return f"<ConditionValue {len(self.events)} events>"


class Condition(Event):
    """Composite event over a set of sub-events.

    Every sub-event checks in through the subclass's ``_check``, which
    decides when the condition triggers.  Failed sub-events propagate
    their exception to the condition.
    """

    __slots__ = ("_events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = None
        self._defused = False
        self._events = events = list(events)
        self._done = 0
        if not events:
            self.succeed(ConditionValue([]))
            return

        # One pass: validate and subscribe together, with one bound
        # method shared by every subscription instead of one per event;
        # once a processed member settles it, the rest are not subscribed.
        check = self._check
        for event in events:
            if event.env is not env:
                raise SimulationError("events from different environments")
            if event.callbacks is None:
                check(event)
            elif self._ok is None:
                event.callbacks.append(check)

    def _detach(self) -> None:
        """Once settled, unsubscribe from the members still pending, so
        a race's loser does not hold the condition and its winner."""
        check = self._check
        for event in self._events:
            if event.callbacks and check in event.callbacks:
                event.callbacks.remove(check)


class AllOf(Condition):
    """Condition that triggers once *all* sub-events have triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        done = self._done = self._done + 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
        elif done == len(self._events):
            # Every sub-event checked in without failing, so all are ok.
            self.succeed(ConditionValue(self._events))


class AnyOf(Condition):
    """Condition that triggers once *any* sub-event has triggered."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        # The first sub-event settles the condition.
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(ConditionValue(
                [e for e in self._events if e._ok is not None and e._ok]))
        self._detach()


def join_all(env: "Environment", processes: Sequence["Process"]) -> Generator:
    """Structured fan-out join: wait for every process, returning their
    values in order; on the first failure, cancel the surviving siblings
    and re-raise it.

    A bare ``yield env.all_of(processes)`` propagates the first failure
    but leaves the other branches running: a *second* branch failing
    later has no waiter (the condition already triggered, so it no
    longer defuses members), and the stray failure crashes the whole
    run.  Cancelling the siblings mirrors cloud fan-out semantics — a
    failed branch fails the parallel state and the rest are aborted —
    and every process is pre-defused so a same-instant double failure
    (or the cancellation itself) cannot escape either.
    """
    processes = list(processes)
    for process in processes:
        process.defuse()
    condition = env.all_of(processes)
    try:
        yield condition
    except BaseException:
        condition.defuse()
        for process in processes:
            if process.is_alive:
                process.interrupt(cause="sibling failure")
        raise
    return [process.value for process in processes]


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    __slots__ = ("_now", "_queue", "_urgent", "_ready", "_sequence",
                 "_active_process", "_monitor")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []
        #: immediate (zero-delay) events, drained before the clock moves:
        #: URGENT-priority entries and NORMAL-priority entries, each FIFO
        #: in sequence order as ``(order, event)`` pairs.
        self._urgent: deque = deque()
        self._ready: deque = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self._monitor: Optional[Callable[[float], None]] = None

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def monitor(self) -> Optional[Callable[[float], None]]:
        """Dispatch observer: called with the clock after every pop."""
        return self._monitor

    @monitor.setter
    def monitor(self, observer: Optional[Callable[[float], None]]) -> None:
        self._monitor = observer

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Place ``event`` on the queue ``delay`` time units from now."""
        sequence = self._sequence
        if delay:
            heappush(self._queue,
                     (self._now + delay,
                      priority * _PRIORITY_STRIDE + sequence, event))
        elif priority == NORMAL:
            self._ready.append((_PRIORITY_STRIDE + sequence, event))
        elif priority == URGENT:
            self._urgent.append((sequence, event))
        else:
            # Exotic priorities take the generic heap path; the dispatch
            # loop orders heap entries against the deques numerically.
            heappush(self._queue,
                     (self._now, priority * _PRIORITY_STRIDE + sequence,
                      event))
        self._sequence = sequence + 1

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator`` and return it."""
        return Process(self, generator)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that triggers ``delay`` time units from now."""
        # Inlined Timeout.__init__ (keep in sync): this is the single
        # hottest constructor, and skipping the __init__ frame is worth
        # the duplication.
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = delay
        sequence = self._sequence
        if delay > 0:
            heappush(self._queue,
                     (self._now + delay, _PRIORITY_STRIDE + sequence, event))
        elif delay == 0:
            self._ready.append((_PRIORITY_STRIDE + sequence, event))
        else:
            # The ordering compare (not ``delay < 0``) also rejects NaN,
            # which would poison the heap invariant.
            raise ValueError(f"negative timeout delay: {delay}")
        self._sequence = sequence + 1
        return event

    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        # Inlined Event.__init__ (keep in sync), as with timeout().
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = None
        event._ok = None
        event._defused = False
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Return an event that triggers when all of ``events`` have."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Return an event that triggers when any of ``events`` has."""
        return AnyOf(self, events)

    def close(self) -> None:
        """Drop every pending event (each reaches back here through its
        waiters) and the monitor.  Do not run a closed environment."""
        self._queue.clear()
        self._urgent.clear()
        self._ready.clear()
        self._monitor = None

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._ready:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Any = None, _pop=heappop) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run to queue exhaustion), a number (run
        until that simulated time), or an :class:`Event` (run until the
        event triggers, returning its value).
        """
        stop_time = float("inf")
        if isinstance(until, Event):
            target = until
        else:
            target = _NEVER
            if until is not None:
                stop_time = float(until)
                # Not ``stop_time < now``: that would accept NaN.
                if not stop_time >= self._now:
                    raise SimulationError(
                        f"until ({stop_time}) lies in the past (now={self._now})")

        # One loop serves every mode.  It dispatches until ``target``
        # carries a value (the target's own callbacks fire on a later
        # dispatch, not before returning), the queues run dry, or the
        # next heap entry lies past ``stop_time``; events due at exactly
        # ``until`` still run.  Immediates always carry the current
        # clock time, so only heap pops consult ``stop_time``.  Each pass
        # inlines one dispatch (event selection, clock advance, monitor
        # hook, callback fan-out with the single-process resume stepped
        # inline, failure check) so the hot path touches only locals.
        queue = self._queue
        urgent = self._urgent
        ready = self._ready
        monitor = self._monitor
        resume = Process._resume
        # Hot-loop globals hoisted to locals: every name in the dispatch
        # block below must resolve via LOAD_FAST.
        method_type = MethodType
        stride = _PRIORITY_STRIDE

        while target._ok is None:
            # -- selection (batched: immediates drain at O(1) before
            # the heap moves the clock; ties resolve by packed order)
            if urgent:
                if queue and queue[0][0] == self._now \
                        and queue[0][1] < urgent[0][0]:
                    self._now, _, event = _pop(queue)
                else:
                    event = urgent.popleft()[1]
            elif ready:
                if queue and queue[0][0] == self._now \
                        and queue[0][1] < ready[0][0]:
                    self._now, _, event = _pop(queue)
                else:
                    event = ready.popleft()[1]
            elif queue:
                if queue[0][0] > stop_time:
                    break
                self._now, _, event = _pop(queue)
            else:
                break
            if monitor is not None:
                monitor(self._now)
            # -- dispatch
            callbacks = event.callbacks
            event.callbacks = None
            if len(callbacks) == 1:
                cb = callbacks[0]
                if cb.__class__ is method_type and cb.__func__ is resume:
                    # Inlined Process._resume (keep in sync): step the
                    # generator without the extra Python frame.  A failed
                    # event is defused by the throw branch, so no
                    # unhandled-failure check is needed here.
                    proc = cb.__self__
                    self._active_process = proc
                    send = proc._send
                    step_event = event
                    while True:
                        try:
                            if step_event._ok:
                                next_event = send(step_event._value)
                            else:
                                step_event._defused = True
                                next_event = proc._generator.throw(
                                    step_event._value)
                        except StopIteration as stop:
                            proc._ok = True
                            proc._value = stop.value
                            seq = self._sequence
                            ready.append((stride + seq, proc))
                            self._sequence = seq + 1
                            break
                        except BaseException as error:
                            proc._ok = False
                            proc._value = error
                            seq = self._sequence
                            ready.append((stride + seq, proc))
                            self._sequence = seq + 1
                            break
                        try:
                            next_callbacks = next_event.callbacks
                        except AttributeError:
                            proc._ok = False
                            proc._value = SimulationError(
                                f"process {proc.name} yielded a "
                                f"non-event: {next_event!r}")
                            seq = self._sequence
                            ready.append((stride + seq, proc))
                            self._sequence = seq + 1
                            break
                        if next_callbacks is not None:
                            next_callbacks.append(cb)
                            proc._target = next_event
                            break
                        step_event = next_event
                    self._active_process = None
                else:
                    cb(event)
                    if event._ok is False and not event._defused:
                        raise event._value
            else:
                for callback in callbacks:
                    callback(event)
                if event._ok is False and not event._defused:
                    # An unhandled failure crashes the run, loudly.
                    raise event._value

        if target is until:
            if target._ok is not None:
                if not target._ok:
                    target._defused = True
                    raise target._value
                return target._value
            raise SimulationError(
                "run(until=event) finished but the event never triggered")
        if until is not None:
            self._now = stop_time
        return None


#: The target of ``run()`` and ``run(until=time)``: it never triggers, so
#: only empty queues or the stop time end the dispatch loop.
_NEVER = Event(None)
