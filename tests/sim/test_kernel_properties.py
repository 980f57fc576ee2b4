"""Property-based invariants of the DES kernel and the cloud queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.sim import Environment, Interrupt
from repro.storage import CloudQueue, TransactionMeter


@given(delays=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=20))
@settings(max_examples=40, deadline=None)
def test_all_of_completes_at_max_any_of_at_min(delays):
    env = Environment()
    moments = {}

    def waiter(env):
        events = [env.timeout(delay) for delay in delays]
        yield env.any_of(list(events))
        moments["any"] = env.now
        yield env.all_of(list(events))
        moments["all"] = env.now

    env.process(waiter(env))
    env.run()
    assert moments["any"] == min(delays)
    assert moments["all"] == max(delays)


#: Delays on a coarse grid, so that events often fall due together.
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.0])

#: One process program is a list of operations:
#: ``("wait", delay)`` yields a timeout (zero-delay included);
#: ``("triggered",)`` yields an event already triggered by the process;
#: ``("all"|"any", delays, failing)`` waits on a condition over timeouts,
#: plus a member that fails after ``failing`` when it is not ``None``;
#: ``("spawn", offset)`` starts the program ``offset`` places further on;
#: ``("join", k)`` waits on a process started after this one;
#: ``("interrupt", k)`` interrupts another live process.
_OPERATIONS = st.one_of(
    st.tuples(st.just("wait"), _DELAYS),
    st.tuples(st.just("triggered")),
    st.tuples(st.sampled_from(["all", "any"]),
              st.lists(_DELAYS, min_size=1, max_size=3),
              st.one_of(st.none(), _DELAYS)),
    st.tuples(st.just("spawn"), st.integers(1, 3)),
    st.tuples(st.just("join"), st.integers(0, 7)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
)
_PROGRAMS = st.lists(st.lists(_OPERATIONS, min_size=1, max_size=5),
                     min_size=1, max_size=4)


def _trace(programs, drive):
    """Start one process per program, run them under ``drive`` and
    return the ``(now, label)`` trace every process logs, ending with
    the error that stopped the run if one did."""
    env = Environment()
    trace, processes = [], []

    def fail_later(member, delay):
        yield env.timeout(delay)
        member.fail(RuntimeError("member failed"))

    def perform(pid, program, operation):
        kind = operation[0]
        if kind == "wait":
            return (yield env.timeout(operation[1], value=operation[1]))
        if kind == "triggered":
            event = env.event()
            event.succeed(pid)
            return (yield event)
        if kind in ("all", "any"):
            members = [env.timeout(delay, value=delay)
                       for delay in operation[1]]
            if operation[2] is not None:
                member = env.event()
                member.defuse()    # an `any` may settle before it fails
                env.process(fail_later(member, operation[2]))
                members.append(member)
            condition = (env.all_of if kind == "all" else env.any_of)(members)
            condition.defuse()     # its waiter may have been interrupted
            return tuple((yield condition).values())
        if kind == "spawn":
            if program + operation[1] >= len(programs):
                return "none"
            spawn(program + operation[1])
            return len(processes) - 1
        younger = processes[pid + 1:]
        if kind == "join":
            if not younger:
                return "none"
            return (yield younger[operation[1] % len(younger)])
        alive = [other for other, process in enumerate(processes)
                 if other != pid and process.is_alive]
        if not alive:
            return "none"
        target = alive[operation[1] % len(alive)]
        processes[target].interrupt(cause=pid)
        return target

    def body(pid, program):
        for index, operation in enumerate(programs[program]):
            try:
                outcome = yield from perform(pid, program, operation)
            except Interrupt as interrupt:
                outcome = f"interrupted by {interrupt.cause}"
            except RuntimeError as error:
                outcome = str(error)
            trace.append((env.now, f"{pid}.{index} {operation[0]}: {outcome}"))
        return pid

    def spawn(program):
        processes.append(env.process(body(len(processes), program)))

    for program in range(len(programs)):
        spawn(program)
    try:
        drive(env, trace)
    except AssertionError:
        raise
    except Exception as error:
        # A crash is behaviour too, and every drive mode must share it.
        # Programs reach one kernel defect: an interrupt that arrives
        # before its victim has started, while another is pending, or
        # while the victim's awaited event is mid-dispatch leaves the
        # victim subscribed to an event it no longer waits on, so the
        # victim is resumed twice.
        trace.append((env.now, f"run raised {type(error).__name__}"))
    return trace


@given(programs=_PROGRAMS, data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_drive_mode_gives_the_same_trace(programs, data):
    """``run()``, ``run(until=process)`` followed by ``run()``, and
    ``run(until=time)`` slices dispatch the same events in the same
    order."""
    reference = _trace(programs, lambda env, trace: env.run())
    assert reference

    # Stop and cut points include exact event times, so runs stop inside
    # a batch of events due together, and events due at exactly
    # ``until`` must run in the slice that ends there.  The process the
    # second driver waits for only sleeps, so no program can make it
    # fail: ``run(until=event)`` raises a failed target as soon as it
    # triggers, where ``run()`` raises it only when it is dispatched.
    times = sorted({now for now, _ in reference})
    stop = data.draw(st.sampled_from(times))

    def until_process(env, trace):
        def sleeper(env):
            yield env.timeout(stop)

        env.run(until=env.process(sleeper(env)))
        env.run()

    assert _trace(programs, until_process) == reference

    cuts = sorted(
        data.draw(st.lists(st.sampled_from(times), max_size=4))
        + data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.75, 9.0]),
                             max_size=3)))

    def run_slices(env, trace):
        for cut in cuts:
            env.run(until=cut)
            assert env.now == cut
            assert trace == [entry for entry in reference if entry[0] <= cut]
        env.run()

    assert _trace(programs, run_slices) == reference


@given(payloads=st.lists(st.integers(0, 10_000), min_size=1, max_size=30),
       seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_queue_is_fifo_under_any_interleaving(payloads, seed):
    """Whatever the producer/consumer timing, delivery order == send order."""
    env = Environment()
    meter = TransactionMeter()
    rng = np.random.default_rng(seed)
    queue = CloudQueue(env, meter, rng, min_poll_interval=0.05,
                       max_poll_interval=2.0)
    pacing = np.random.default_rng(seed + 1)

    def producer(env):
        for payload in payloads:
            yield env.timeout(float(pacing.uniform(0, 3.0)))
            yield from queue.enqueue(payload)

    received = []

    def consumer(env):
        for _ in payloads:
            message = yield from queue.receive()
            received.append(message.value)
            yield from queue.delete(message)

    env.process(producer(env))
    consumer_process = env.process(consumer(env))
    env.run(until=consumer_process)
    assert received == payloads


@given(n=st.integers(1, 40), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_queue_conserves_messages(n, seed):
    """No message is lost or duplicated when consumers ack promptly."""
    env = Environment()
    meter = TransactionMeter()
    queue = CloudQueue(env, meter, np.random.default_rng(seed),
                       visibility_timeout=10_000.0)

    def producer(env):
        for index in range(n):
            yield from queue.enqueue(index)

    seen = set()

    def consumer(env):
        for _ in range(n):
            message = yield from queue.receive()
            assert message.value not in seen
            seen.add(message.value)
            yield from queue.delete(message)

    env.process(producer(env))
    consumer_process = env.process(consumer(env))
    env.run(until=consumer_process)
    assert seen == set(range(n))
    assert len(queue) == 0
