"""Cloud message queue — the Azure Storage Queue / SQS stand-in.

Queues are *poll-based*: consumers issue receive transactions whether or
not a message is waiting, and every poll is billable.  This is the
mechanism behind the paper's observation that Azure Durable Functions
charge for idle periods — the Durable Task Framework keeps polling its
control and work-item queues while orchestrations sit idle.

Polling uses an exponential backoff between ``min_poll_interval`` and
``max_poll_interval``, mirroring the Durable Task Framework's adaptive
polling ("the queue polling rate is adjusted based on the function
activity", §V-A of the paper).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional

import numpy as np

from repro.sim.kernel import Environment
from repro.storage.latency import StorageLatencyModel, default_queue_latency
from repro.storage.meter import TransactionMeter
from repro.storage.payload import KB, Payload


class MessageTooLarge(ValueError):
    """Raised when a message exceeds the queue's payload limit."""


class _IdleAccrual:
    """Backoff bookkeeping for one elided (blocking) receive wait.

    Tracks where the sampled sleep/poll/double cycle *would* be: the
    absolute time of the next would-be poll and the interval it would
    sleep afterwards.  ``advance`` rolls the cycle forward to ``now``
    and returns how many empty polls it passed — the bill the consumer
    owes for the wait.  Poll service times are ignored — milliseconds
    against intervals of 0.1-30 s — so the count can run a poll or so
    ahead of a sampled loop over long windows; the *rate* (and hence
    the bill) is the same.
    """

    __slots__ = ("due", "interval")

    def __init__(self, now: float, interval: float):
        self.due = now + interval
        self.interval = interval

    def advance(self, now: float, max_interval: float) -> int:
        count = 0
        due = self.due
        interval = self.interval
        while due <= now:
            count += 1
            interval = min(interval * 2.0, max_interval)
            due += interval
        self.due = due
        self.interval = interval
        return count


class QueueFullError(RuntimeError):
    """A non-blocking enqueue hit the queue's ``max_depth`` bound."""


@dataclass
class QueueMessage:
    """A message plus its delivery metadata."""

    message_id: int
    payload: Payload
    enqueued_at: float
    dequeue_count: int = 0
    visible_at: float = 0.0

    @property
    def value(self) -> Any:
        return self.payload.value

    @property
    def size(self) -> int:
        return self.payload.size


class CloudQueue:
    """A poll-based FIFO queue with visibility timeouts and metering."""

    _ids = itertools.count(1)

    def __init__(self, env: Environment, meter: TransactionMeter,
                 rng: np.random.Generator, name: str = "queue",
                 account: str = "storage",
                 latency: Optional[StorageLatencyModel] = None,
                 max_message_size: int = 256 * KB,
                 visibility_timeout: float = 30.0,
                 min_poll_interval: float = 0.05,
                 max_poll_interval: float = 30.0,
                 max_depth: Optional[int] = None,
                 faults: Optional[Any] = None,
                 idle_poll_elision: bool = False):
        if max_depth is not None and max_depth <= 0:
            raise ValueError("max_depth must be positive when set")
        self.env = env
        self.meter = meter
        self.rng = rng
        self.name = name
        self.account = account
        self.faults = faults
        self.latency = latency or default_queue_latency()
        self.max_message_size = max_message_size
        self.visibility_timeout = visibility_timeout
        self.min_poll_interval = min_poll_interval
        self.max_poll_interval = max_poll_interval
        self.max_depth = max_depth
        self.idle_poll_elision = idle_poll_elision
        self._idle_accruals: List[_IdleAccrual] = []
        self._messages: List[QueueMessage] = []
        self._waiters: List[Any] = []
        self._space_waiters: List[Any] = []
        # An audit layer installed as the environment monitor can watch
        # message lifecycles; queues created after the auditor attaches
        # (deployment-time chains) self-register here.
        register = getattr(getattr(env, "monitor", None),
                           "register_queue", None)
        self._observer = register(self) if register is not None else None
        # Cost readers settle elided idle polls before reporting, so
        # bills stay current even while consumers are parked.
        settle = getattr(meter, "register_settler", None)
        if settle is not None:
            settle(self.settle_idle_polls)

    def __len__(self) -> int:
        """Approximate queue depth (visible messages only)."""
        now = self.env.now
        return sum(1 for message in self._messages if message.visible_at <= now)

    # -- simulated operations ----------------------------------------------

    def enqueue(self, value: Any, size: Optional[int] = None,
                block: bool = True) -> Generator:
        """Append a message; yields for the REST round trip.

        When the queue has a ``max_depth`` bound and is full, a blocking
        enqueue waits for a delete to free space (storage backpressure:
        producers slow to the consumers' pace); ``block=False`` raises
        :class:`QueueFullError` instead — the trigger-style 429 path.
        The bound counts all stored messages, visible or not, and is
        approximate under simultaneous producers (like the real service).
        """
        payload = Payload(value, size) if size is not None else Payload.wrap(value)
        if payload.size > self.max_message_size:
            raise MessageTooLarge(
                f"message of {payload.size} bytes exceeds the "
                f"{self.max_message_size}-byte limit of queue {self.name!r}")
        while (self.max_depth is not None
               and len(self._messages) >= self.max_depth):
            if not block:
                raise QueueFullError(
                    f"queue {self.name!r} is at its depth bound "
                    f"({self.max_depth} messages)")
            space = self.env.event()
            self._space_waiters.append(space)
            yield space
        duration = self.latency.operation_time(self.rng, payload.size)
        yield self.env.timeout(duration)
        message = QueueMessage(
            message_id=next(self._ids), payload=payload,
            enqueued_at=self.env.now)
        self._messages.append(message)
        if self._observer is not None:
            self._observer.note_enqueue(message, duplicate=False)
        if self.faults is not None:
            # At-least-once delivery faults: the message may surface late
            # and/or twice — or, during a partition window, not at all.
            # The duplicate is the broker's doing, not a client call, so
            # it is not metered as a second enqueue.
            chaos = getattr(self.faults, "draw_message_chaos", None)
            if chaos is not None:
                delay, duplicate, dropped = chaos(self.name, self.env.now)
            else:
                delay, duplicate = self.faults.draw_queue_faults(self.name)
                dropped = False
            if dropped:
                # Partition drop: the enqueue call already succeeded and
                # is metered below; the broker silently loses the body.
                self._messages.remove(message)
                if self._observer is not None:
                    note_drop = getattr(self._observer, "note_drop", None)
                    if note_drop is not None:
                        note_drop(message)
            if delay > 0:
                message.visible_at = self.env.now + delay
            if duplicate and not dropped:
                twin = QueueMessage(
                    message_id=next(self._ids), payload=payload,
                    enqueued_at=self.env.now,
                    visible_at=message.visible_at)
                self._messages.append(twin)
                if self._observer is not None:
                    self._observer.note_enqueue(twin, duplicate=True)
        self.meter.record("queue", self.account, "enqueue", size=payload.size)
        # Cut short the backoff sleep of any waiting receiver: an active
        # consumer dispatches in sub-second time (the paper measures
        # durable queue hops at "often less than 1 second") while idle
        # polling — and its transaction bill — continues unchanged.
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed()
        return message.message_id

    def poll(self) -> Generator:
        """One receive attempt.  Returns a message or ``None``.

        Every attempt — empty or not — is a billable transaction, which is
        exactly how storage queues are priced.
        """
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        message = self._next_visible()
        if message is None:
            self.meter.record("queue", self.account, "poll", size=0)
            return None
        message.dequeue_count += 1
        message.visible_at = self.env.now + self.visibility_timeout
        if self._observer is not None:
            self._observer.note_dequeue(message)
        self.meter.record("queue", self.account, "poll", size=message.size)
        return message

    def receive(self, deadline: Optional[float] = None) -> Generator:
        """Poll with exponential backoff until a message arrives.

        Returns the message, or ``None`` if ``deadline`` (absolute
        simulated time) passes first.  Each poll is metered, so an idle
        consumer accrues transaction cost proportional to idle time.

        With ``idle_poll_elision`` enabled and the queue *provably*
        empty — no stored messages at all, no fault plan that could
        delay or duplicate deliveries, no depth bound that could park
        producers — the backoff loop is replaced by a blocking wait on
        the enqueue wakeup: the polls that sampling would have issued
        are reconstructed arithmetically and metered in one batched
        record (the bill is the paper's point; the simulator events are
        not).  Any condition that makes poll timing observable falls
        back to honest sampled polling.
        """
        interval = self.min_poll_interval
        while True:
            message = yield from self.poll()
            if message is not None:
                return message
            if deadline is not None and self.env.now >= deadline:
                return None
            if (self.idle_poll_elision and not self._messages
                    and self.faults is None and self.max_depth is None):
                interval = yield from self._idle_wait(interval, deadline)
                continue
            wait = interval
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - self.env.now))
            wakeup = self.env.event()
            self._waiters.append(wakeup)
            yield self.env.timeout(wait) | wakeup
            if wakeup in self._waiters:
                self._waiters.remove(wakeup)
            interval = min(interval * 2.0, self.max_poll_interval)

    #: Elided idle waits also settle their accrued poll bill on a timer
    #: at least this many backoff periods apart, bounding how long polls
    #: stay unrecorded (totals read are always exact — cost readers
    #: settle on demand via the meter's settler hook).
    SETTLE_PERIODS = 64.0

    def settle_idle_polls(self) -> None:
        """Bill the empty polls every parked consumer has accrued so far.

        Called on a coarse timer from within elided waits and by the
        meter before any cost read, so elision changes when poll
        transactions are *recorded*, never how many are billed.
        """
        total = 0
        now = self.env.now
        for accrual in self._idle_accruals:
            total += accrual.advance(now, self.max_poll_interval)
        if total:
            self.meter.record("queue", self.account, "poll", size=0,
                              count=total)

    def _idle_wait(self, interval: float,
                   deadline: Optional[float]) -> Generator:
        """Block until an enqueue wakeup instead of sampling an empty
        queue; returns the backoff interval sampling would have reached.

        The wait costs a handful of kernel events per settlement window
        instead of several per backoff period, which is what lets long
        idle campaigns simulate in seconds.
        """
        settle = self.max_poll_interval * self.SETTLE_PERIODS
        accrual = _IdleAccrual(self.env.now, interval)
        self._idle_accruals.append(accrual)
        try:
            while True:
                wait = settle
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - self.env.now))
                wakeup = self.env.event()
                self._waiters.append(wakeup)
                yield self.env.timeout(wait) | wakeup
                if wakeup in self._waiters:
                    self._waiters.remove(wakeup)
                self.settle_idle_polls()
                if wakeup.triggered or (deadline is not None
                                        and self.env.now >= deadline):
                    # Let the caller's loop issue the next *real* poll.
                    return accrual.interval
        finally:
            self._idle_accruals.remove(accrual)

    def delete(self, message: QueueMessage) -> Generator:
        """Acknowledge (remove) a received message."""
        duration = self.latency.operation_time(self.rng, 0)
        yield self.env.timeout(duration)
        try:
            self._messages.remove(message)
        except ValueError:
            pass
        else:
            if self._observer is not None:
                self._observer.note_delete(message)
            # A slot freed under the depth bound: wake blocked producers.
            waiters, self._space_waiters = self._space_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
        self.meter.record("queue", self.account, "delete")
        return None

    # -- internals -----------------------------------------------------------

    def _next_visible(self) -> Optional[QueueMessage]:
        now = self.env.now
        for message in self._messages:
            if message.visible_at <= now:
                return message
        return None

    def __repr__(self) -> str:
        return f"CloudQueue(name={self.name!r}, depth={len(self._messages)})"
