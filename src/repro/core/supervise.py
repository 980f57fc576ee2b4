"""Supervised sweep execution: the one runner every batch of specs uses.

:class:`SupervisedRunner` executes a list of
:class:`~repro.core.parallel.CampaignSpec` on worker processes and keeps
the sweep alive through whatever happens to them.
:class:`~repro.core.parallel.ParallelRunner` is its strict face: the
same sweep, with the first failure raised instead of returned.

* **Long-lived workers** — up to ``workers`` forked processes, started
  only when a spec needs one (a sweep served wholly from the cache or
  the journal starts none).  Each takes specs over its pipe, one at a
  time, until ``run`` returns; a process is replaced only when it dies,
  stalls, passes its deadline or is killed by a :class:`ChaosPlan`.
* **Isolation** — a SIGKILL, OOM kill or segfault costs one attempt of
  one spec plus its worker process, never the sweep.
* **Heartbeats** — every worker beats a shared timestamp from a
  background thread; a worker whose heart stops (stuck in a syscall,
  swapped to death) is detected and killed even if its wall-clock
  deadline is far away.
* **Watchdog deadlines** — ``spec_timeout_s`` bounds each attempt's
  wall-clock time; a worker past its deadline is SIGKILLed and the spec
  becomes a :class:`SpecTimeout` (after restarts are exhausted).
* **Bounded restarts** — crashed/stalled/timed-out specs are retried
  up to ``max_restarts`` times with capped exponential backoff.
  Deterministic *exceptions* (:class:`SpecExecutionError`) are never
  retried — the simulation is a pure function of the spec, so the retry
  would fail identically — and the worker that raised one keeps
  serving specs.
* **Graceful degradation** — the sweep always finishes: the result is
  a :class:`PartialSweepResult` listing outcomes in spec order plus a
  typed failure record per spec that exhausted its restarts.
* **Checkpointing** — with a :class:`~repro.core.checkpoint.SweepJournal`
  every completed outcome (including cache hits) is flushed to disk the
  moment it exists, so ``repro resume`` after any kind of death re-runs
  only the missing specs and merges bit-identically.
* **Signal safety** — SIGINT/SIGTERM stop the sweep *after* draining
  every already-completed result from worker pipes into the journal;
  a second signal forces immediate exit.
* **Self-chaos** — a :class:`ChaosPlan` makes the supervisor SIGKILL
  its own workers at seeded points, which is how the test suite proves
  recovery yields byte-identical outcomes (the harness injects faults
  into platforms all day; it should survive its own medicine).

When worker processes cannot be spawned at all (sandboxed
interpreters), the runner degrades to in-process execution: no crash
isolation, but journaling, typed failures and signal-safe flushing all
still hold.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.cache import cache_keys
from repro.core.checkpoint import SweepJournal
from repro.core.parallel import (
    CampaignOutcome,
    CampaignSpec,
    SpecExecutionError,
    SweepError,
    execute_spec,
)

#: how often workers refresh their heartbeat timestamp
HEARTBEAT_INTERVAL_S = 0.2


class WorkerCrash(SweepError):
    """A worker died (SIGKILL, OOM, segfault, stalled heartbeat)
    without reporting a result for its spec."""

    def __init__(self, spec: CampaignSpec, detail: str):
        super().__init__(spec, detail)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.detail = detail

    def __str__(self) -> str:
        return (f"worker for spec {self.spec_hash[:12]} "
                f"({self.spec.deployment} {self.spec.campaign}) "
                f"crashed: {self.detail}")


class SpecTimeout(SweepError):
    """An attempt exceeded its wall-clock deadline and was killed.

    Wall-clock, not simulated time — a deadline miss usually means a
    swamped machine rather than a broken spec, which is why timeouts
    are retried (bounded) like crashes.
    """

    def __init__(self, spec: CampaignSpec, timeout_s: float):
        super().__init__(spec, timeout_s)
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.timeout_s = timeout_s

    def __str__(self) -> str:
        return (f"spec {self.spec_hash[:12]} ({self.spec.deployment} "
                f"{self.spec.campaign}) exceeded its {self.timeout_s:g}s "
                f"wall-clock deadline")


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded self-chaos: SIGKILL our own workers mid-spec.

    The decision to kill attempt ``a`` of spec ``i`` is drawn from
    ``Random(f"chaos:{seed}:{i}:{a}")`` — fully deterministic, so a
    chaos test can assert exact recovery behaviour.  ``max_kills_per_spec``
    bounds the kills below the runner's restart budget so every spec
    eventually completes.
    """

    kill_probability: float = 1.0
    kill_after_s: float = 0.05
    max_kills_per_spec: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ValueError("kill_probability must lie in [0, 1]")
        if self.kill_after_s < 0:
            raise ValueError("kill_after_s must be non-negative")
        if self.max_kills_per_spec < 0:
            raise ValueError("max_kills_per_spec must be non-negative")

    def should_kill(self, index: int, attempt: int,
                    kills_so_far: int) -> bool:
        if kills_so_far >= self.max_kills_per_spec:
            return False
        stream = random.Random(f"chaos:{self.seed}:{index}:{attempt}")
        return stream.random() < self.kill_probability


@dataclass
class SpecFailure:
    """One spec that exhausted supervision: its typed terminal error."""

    index: int
    spec: CampaignSpec
    error: SweepError
    attempts: int

    @property
    def kind(self) -> str:
        return type(self.error).__name__

    def __str__(self) -> str:
        return (f"[{self.kind} after {self.attempts} "
                f"attempt{'s' if self.attempts != 1 else ''}] {self.error}")


@dataclass
class PartialSweepResult:
    """A finished sweep, failures included instead of raised away.

    ``outcomes`` is in spec order with ``None`` holes where a spec
    failed terminally; ``failures`` explains each hole.  Completed
    outcomes are never discarded — they are already in the journal and
    cache by the time this object exists.
    """

    outcomes: List[Optional[CampaignOutcome]]
    failures: List[SpecFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> List[CampaignOutcome]:
        return [outcome for outcome in self.outcomes if outcome is not None]

    def raise_if_failed(self) -> List[CampaignOutcome]:
        """``outcomes`` when clean; raises the first failure otherwise."""
        if self.failures:
            error = self.failures[0].error
            raise error from getattr(error, "cause", None)
        return self.outcomes  # type: ignore[return-value]


def _prewarm_workloads(specs: Iterable[CampaignSpec]) -> None:
    """Memoize the real-compute workload artifacts in this process.

    Worker processes are forked where the platform allows it, so paying
    for dataset generation and model training once here means every
    worker inherits the memo instead of re-training per process.
    Touching ``trained`` is what trains: the workload builds only its
    dataset until a deployment asks for the model.
    """
    from repro.core.deployments.ml import ml_workload
    from repro.core.deployments.video import video_workload

    for spec in specs:
        if spec.workload in ("ml-training", "ml-inference"):
            ml_workload(spec.scale, spec.workload_seed).trained
        else:
            video_workload(spec.fanout, spec.workload_seed)


# -- worker side -------------------------------------------------------------------


def _worker_main(conn, heartbeat, heartbeat_interval_s: float,
                 inherited: Sequence[Any]) -> None:
    """Serve specs from the supervisor until its end of the pipe closes.

    ``inherited`` are the supervisor's ends of every worker pipe open at
    fork time (this worker's own included).  Closing them here leaves
    the supervisor holding the only copy, so a worker orphaned by a
    killed supervisor sees end-of-input and exits.

    SIGINT is ignored here: a terminal Ctrl-C reaches the whole process
    group, and shutdown (drain pipes, then kill) is the supervisor's
    job, not each worker's.
    """
    for connection in inherited:
        connection.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval_s)

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        while True:
            try:
                spec = conn.recv()
            except EOFError:
                return
            try:
                outcome = execute_spec(spec)
            except Exception as error:
                conn.send(("error", f"{type(error).__name__}: {error}",
                           traceback.format_exc()))
            else:
                conn.send(("ok", outcome))
    finally:
        stop.set()
        conn.close()


class _Task:
    """A spec awaiting (re)execution."""

    __slots__ = ("index", "spec", "attempt", "not_before")

    def __init__(self, index: int, spec: CampaignSpec,
                 attempt: int = 1, not_before: float = 0.0):
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.not_before = not_before


class _Worker:
    """Supervisor-side bookkeeping for one live worker process.

    ``task`` is the attempt in flight (``None`` while idle); its
    ``deadline`` and chaos ``kill_at`` are wall-clock instants.
    """

    __slots__ = ("process", "conn", "heartbeat", "task", "deadline",
                 "kill_at")

    def __init__(self, process, conn, heartbeat):
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        self.kill_at: Optional[float] = None


class _PoolUnavailable(Exception):
    """Worker processes cannot be started; use the in-process path."""


# -- the supervisor ----------------------------------------------------------------


class SupervisedRunner:
    """The campaign runner: specs in, a :class:`PartialSweepResult` out.

    ``run(...).raise_if_failed()`` is the strict behaviour that
    :class:`~repro.core.parallel.ParallelRunner` offers.  Everything a
    worker reports is journaled and cached immediately — there is no
    end-of-sweep flush to lose.
    """

    def __init__(self, workers: Optional[int] = None, cache: Any = None,
                 journal: Optional[Union[str, Path, SweepJournal]] = None,
                 spec_timeout_s: Optional[float] = None,
                 max_restarts: int = 2,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 5.0,
                 stall_timeout_s: Optional[float] = 30.0,
                 chaos: Optional[ChaosPlan] = None,
                 poll_interval_s: float = 0.05):
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be positive")
        if spec_timeout_s is not None and spec_timeout_s <= 0:
            raise ValueError("spec_timeout_s must be positive (or None)")
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff must be non-negative")
        self.workers = workers
        self.cache = cache
        if journal is not None and not isinstance(journal, SweepJournal):
            journal = SweepJournal(journal)
        self.journal = journal
        self.spec_timeout_s = spec_timeout_s
        self.max_restarts = max_restarts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.stall_timeout_s = stall_timeout_s or None
        self.chaos = chaos
        self.poll_interval_s = poll_interval_s
        self._interrupted: Optional[int] = None
        self._interrupt_count = 0
        #: the running sweep's cache keys, by spec position
        self._keys: List[str] = []
        self._previous_handlers: Dict[int, Any] = {}

    # -- public entry points ----------------------------------------------------

    def run(self, specs: Sequence[CampaignSpec],
            argv: Optional[Sequence[str]] = None,
            resume: bool = True) -> PartialSweepResult:
        """Execute ``specs`` under supervision; never raises away
        completed work (SIGINT/SIGTERM excepted, and even then the
        journal already holds every completed outcome)."""
        specs = list(specs)
        outcomes: List[Optional[CampaignOutcome]] = [None] * len(specs)
        failures: List[SpecFailure] = []

        self._keys = cache_keys(specs)
        journaled: Dict[int, CampaignOutcome] = {}
        if self.journal is not None:
            self.journal.create_or_open(specs, argv=argv, resume=resume,
                                        keys=self._keys)
            journaled = self.journal.completed(specs, self._keys)

        # Each store gets what the other holds, as the document text it
        # was verified from: after a resume either store alone can
        # replay the whole sweep, and nothing is encoded twice.
        pending: Deque[_Task] = deque()
        for index, (spec, key) in enumerate(zip(specs, self._keys)):
            outcome = journaled.get(index)
            if outcome is not None:
                if self.cache is not None:
                    self.cache.put(spec, outcome, key)
            elif self.cache is not None:
                outcome = self.cache.get(spec, key)
                if outcome is not None and self.journal is not None:
                    self.journal.record(index, outcome, key)
            if outcome is None:
                pending.append(_Task(index, spec))
            outcomes[index] = outcome

        if pending:
            self._install_signal_handlers()
            try:
                try:
                    self._run_processes(pending, outcomes, failures)
                except _PoolUnavailable:
                    self._run_inline(pending, outcomes, failures)
            finally:
                self._restore_signal_handlers()
            if self._interrupted is not None:
                raise KeyboardInterrupt(
                    f"sweep interrupted by signal {self._interrupted}; "
                    f"completed outcomes are journaled")

        failures.sort(key=lambda failure: failure.index)
        return PartialSweepResult(outcomes=outcomes, failures=failures)

    def resume(self, argv: Optional[Sequence[str]] = None,
               ) -> PartialSweepResult:
        """Finish a journaled sweep using the manifest's own spec list."""
        if self.journal is None:
            raise ValueError("resume() needs a journal")
        manifest = self.journal.open()
        return self.run(manifest.specs(), argv=argv)

    # -- completion plumbing ----------------------------------------------------

    def _complete(self, index: int, outcome: CampaignOutcome,
                  outcomes: List[Optional[CampaignOutcome]]) -> None:
        """Flush one finished spec everywhere, the moment it finishes;
        the first store encodes it, the second copies the text."""
        outcomes[index] = outcome
        key = self._keys[index]
        if self.journal is not None:
            self.journal.record(index, outcome, key)
        if self.cache is not None:
            self.cache.put(outcome.spec, outcome, key)

    def _retry_or_fail(self, task: _Task, error: SweepError,
                       pending: Deque[_Task],
                       failures: List[SpecFailure]) -> None:
        if task.attempt <= self.max_restarts:
            delay = min(self.backoff_cap_s,
                        self.backoff_base_s * (2 ** (task.attempt - 1)))
            pending.append(_Task(task.index, task.spec,
                                 attempt=task.attempt + 1,
                                 not_before=time.monotonic() + delay))
        else:
            failures.append(SpecFailure(index=task.index, spec=task.spec,
                                        error=error,
                                        attempts=task.attempt))

    # -- supervised process execution -------------------------------------------

    def _run_processes(self, pending: Deque[_Task],
                       outcomes: List[Optional[CampaignOutcome]],
                       failures: List[SpecFailure]) -> None:
        try:
            _prewarm_workloads([task.spec for task in pending])
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        except Exception as error:
            raise _PoolUnavailable(str(error)) from error

        pool: List[_Worker] = []
        slots = 0   # the most workers alive at once so far
        kills: Dict[int, int] = {}
        try:
            while pending or any(worker.task for worker in pool):
                if self._interrupted is not None:
                    self._drain_and_stop(pool, outcomes)
                    return
                slots = self._dispatch(context, pool, slots, pending,
                                       failures, kills)
                self._reap(pool, pending, outcomes, failures, kills)
        finally:
            self._stop(pool)

    def _dispatch(self, context, pool: List[_Worker], slots: int,
                  pending: Deque[_Task], failures: List[SpecFailure],
                  kills: Dict[int, int]) -> int:
        """Hand every eligible task to a worker; returns ``slots``.

        A slot whose process was discarded is refilled first, then idle
        workers are reused, and only then does the pool grow toward
        ``workers``.  So a sweep launches one process per slot it needs
        plus exactly one per discarded process it still has work for.
        """
        now = time.monotonic()
        while pending:
            idle = next((worker for worker in pool
                         if worker.task is None), None)
            launch = len(pool) < slots or (idle is None
                                           and slots < self.workers)
            if not launch and idle is None:
                break
            task = self._pop_eligible(pending, now)
            if task is None:
                break
            if not launch:
                self._assign(idle, task, pool, pending, failures, kills)
                continue
            try:
                worker = self._launch(context, pool)
            except (OSError, ValueError, AttributeError,
                    ImportError) as error:
                if not slots:
                    # Nothing launched yet: the pool is unusable.
                    # Re-queue this task first — it was already popped,
                    # and the inline path only sees what is still in
                    # the deque.
                    pending.appendleft(task)
                    raise _PoolUnavailable(str(error)) from error
                # Mid-sweep launch failure: treat as a crash of this
                # attempt, keep supervising.
                self._retry_or_fail(
                    task, WorkerCrash(task.spec, f"launch failed: {error}"),
                    pending, failures)
                continue
            pool.append(worker)
            slots = max(slots, len(pool))
            self._assign(worker, task, pool, pending, failures, kills)
        return slots

    def _pop_eligible(self, pending: Deque[_Task],
                      now: float) -> Optional[_Task]:
        for _ in range(len(pending)):
            task = pending.popleft()
            if task.not_before <= now:
                return task
            pending.append(task)
        return None

    def _launch(self, context, pool: List[_Worker]) -> _Worker:
        """Fork one idle worker process."""
        parent_conn, child_conn = context.Pipe()
        # Lock-free: a worker SIGKILLed mid-beat must not leave behind a
        # lock the supervisor then blocks on.
        heartbeat = context.RawValue("d", time.monotonic())
        inherited = [parent_conn] + [worker.conn for worker in pool]
        process = context.Process(
            target=_worker_main,
            args=(child_conn, heartbeat, HEARTBEAT_INTERVAL_S, inherited),
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn, heartbeat)

    def _assign(self, worker: _Worker, task: _Task, pool: List[_Worker],
                pending: Deque[_Task], failures: List[SpecFailure],
                kills: Dict[int, int]) -> None:
        try:
            worker.conn.send(task.spec)
        except Exception as error:
            # The worker died while idle (or the spec does not pickle):
            # a crash of this attempt.
            self._discard(pool, worker)
            self._retry_or_fail(
                task, WorkerCrash(task.spec,
                                  f"could not hand over the spec: {error}"),
                pending, failures)
            return
        now = time.monotonic()
        worker.task = task
        worker.deadline = (now + self.spec_timeout_s
                           if self.spec_timeout_s is not None else None)
        worker.kill_at = None
        if self.chaos is not None and self.chaos.should_kill(
                task.index, task.attempt, kills.get(task.index, 0)):
            worker.kill_at = now + self.chaos.kill_after_s

    def _reap(self, pool: List[_Worker], pending: Deque[_Task],
              outcomes: List[Optional[CampaignOutcome]],
              failures: List[SpecFailure],
              kills: Dict[int, int]) -> None:
        """Record reported results and enforce deadlines, heartbeats
        and chaos: a worker that reported is idle again; dead, stalled
        and timed-out ones are discarded, their attempts retried or
        failed."""
        if not pool:
            time.sleep(self.poll_interval_s)
            return
        try:
            ready = set(_connection_wait(
                [worker.conn for worker in pool],
                timeout=self.poll_interval_s))
        except OSError:
            ready = set()
        now = time.monotonic()
        for worker in list(pool):
            task = worker.task
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is None:
                    self._discard(pool, worker)
                    if task is not None:
                        self._retry_or_fail(
                            task,
                            WorkerCrash(task.spec,
                                        f"died without a result "
                                        f"(exitcode "
                                        f"{worker.process.exitcode})"),
                            pending, failures)
                    continue
                worker.task = None
                if message[0] == "ok":
                    self._complete(task.index, message[1], outcomes)
                else:
                    failures.append(SpecFailure(
                        index=task.index, spec=task.spec,
                        error=SpecExecutionError(task.spec, message[1],
                                                 message[2]),
                        attempts=task.attempt))
                continue
            if task is None:
                continue
            if worker.kill_at is not None and now >= worker.kill_at:
                worker.kill_at = None
                kills[task.index] = kills.get(task.index, 0) + 1
                self._kill(worker)
                continue   # death surfaces through the pipe next round
            if worker.deadline is not None and now >= worker.deadline:
                self._discard(pool, worker)
                self._retry_or_fail(
                    task, SpecTimeout(task.spec, self.spec_timeout_s),
                    pending, failures)
                continue
            if self.stall_timeout_s is not None and \
                    now - worker.heartbeat.value > self.stall_timeout_s:
                self._discard(pool, worker)
                self._retry_or_fail(
                    task,
                    WorkerCrash(task.spec,
                                f"heartbeat stalled for more than "
                                f"{self.stall_timeout_s:g}s"),
                    pending, failures)

    def _drain_and_stop(self, pool: List[_Worker],
                        outcomes: List[Optional[CampaignOutcome]]) -> None:
        """Signal path: flush every already-completed result, then kill.

        Workers that finished before the signal have their outcome
        sitting in the pipe; journal those.  Workers still mid-spec are
        killed — their specs stay missing and resume re-runs them.  A
        drained *error* is reported to stderr: the failure is
        deterministic, so resume will only reproduce it, and the user
        should learn about the broken spec before re-running the sweep.
        """
        for worker in pool:
            try:
                while worker.conn.poll(0):
                    message = worker.conn.recv()
                    if not message:
                        continue
                    if message[0] == "ok":
                        self._complete(worker.task.index, message[1],
                                       outcomes)
                    else:
                        spec = worker.task.spec
                        print(f"spec {spec.spec_hash()[:12]} "
                              f"({spec.deployment} {spec.campaign}) "
                              f"failed before the interrupt and will "
                              f"fail again on resume: {message[1]}",
                              file=sys.stderr)
            except (EOFError, OSError):
                pass
        self._stop(pool)

    def _discard(self, pool: List[_Worker], worker: _Worker) -> None:
        """Kill and reap one worker; the next dispatch replaces it."""
        pool.remove(worker)
        self._kill(worker)
        self._finish(worker)

    def _stop(self, pool: List[_Worker]) -> None:
        """Kill and reap every worker; an idle one has nothing to lose."""
        for worker in pool:
            self._kill(worker)
        for worker in pool:
            self._finish(worker)
        pool.clear()

    def _kill(self, worker: _Worker) -> None:
        try:
            if worker.process.is_alive():
                worker.process.kill()
        except (OSError, AttributeError, ValueError):
            pass

    def _finish(self, worker: _Worker) -> None:
        try:
            worker.process.join(timeout=5.0)
        except (OSError, AssertionError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    # -- in-process degradation -------------------------------------------------

    def _run_inline(self, pending: Deque[_Task],
                    outcomes: List[Optional[CampaignOutcome]],
                    failures: List[SpecFailure]) -> None:
        """No worker processes available: execute specs in this process.

        Crash isolation and deadlines are impossible here, but typed
        failures, immediate journaling and signal-safe stop still hold.
        """
        while pending:
            if self._interrupted is not None:
                return
            task = pending.popleft()
            try:
                outcome = execute_spec(task.spec)
            except Exception as error:
                failures.append(SpecFailure(
                    index=task.index, spec=task.spec,
                    error=SpecExecutionError(
                        task.spec, f"{type(error).__name__}: {error}",
                        traceback.format_exc(), cause=error),
                    attempts=task.attempt))
                continue
            self._complete(task.index, outcome, outcomes)

    # -- signals ----------------------------------------------------------------

    def _install_signal_handlers(self) -> None:
        self._interrupted = None
        self._interrupt_count = 0
        self._previous_handlers = {}
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous_handlers[signum] = signal.signal(
                    signum, self._on_signal)
            except (ValueError, OSError):
                pass

    def _restore_signal_handlers(self) -> None:
        for signum, handler in self._previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        self._previous_handlers = {}

    def _on_signal(self, signum, frame) -> None:
        self._interrupted = signum
        self._interrupt_count += 1
        if self._interrupt_count >= 2:
            # Second signal: the user means *now*.  The journal already
            # holds everything completed before the first signal.
            raise KeyboardInterrupt
