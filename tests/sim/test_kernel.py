"""Unit tests for the DES kernel: clock, processes, conditions, interrupts."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    Timeout,
    join_all,
)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_can_start_elsewhere():
    assert Environment(initial_time=42.0).now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def once(env):
        yield env.timeout(5.0)

    env.process(once(env))
    env.run()
    assert env.now == 5.0


def test_process_rejects_non_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process([env.timeout(1.0)])


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_rejects_nan_delay():
    """A NaN delay would poison the heap: popping it sets the clock to
    NaN.  The constructor rejects it like ``env.timeout`` does."""
    env = Environment()
    with pytest.raises(ValueError):
        Timeout(env, float("nan"))
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    assert env.peek() == float("inf")
    env.run()
    assert env.now == 0.0


def test_process_return_value():
    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return "done"

    result = env.run(until=env.process(worker(env)))
    assert result == "done"


def test_processes_interleave_in_time_order():
    env = Environment()
    log = []

    def ticker(env, name, period, count):
        for _ in range(count):
            yield env.timeout(period)
            log.append((env.now, name))

    env.process(ticker(env, "a", 2.0, 3))
    env.process(ticker(env, "b", 3.0, 2))
    env.run()
    # At t=6 both fire; "b" scheduled its timeout earlier (at t=3 vs t=4),
    # so FIFO-at-equal-times puts it first.
    assert log == [(2.0, "a"), (3.0, "b"), (4.0, "a"), (6.0, "b"), (6.0, "a")]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def forever(env):
        while True:
            yield env.timeout(1.0)

    env.process(forever(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_past_time_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_nan_raises():
    """NaN compares false against every clock, so a ``stop_time < now``
    check would accept it, drain the queue and leave ``now == nan``."""
    env = Environment()
    env.timeout(5.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 0.0
    assert env.peek() == 5.0


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env, gate):
        value = yield gate
        seen.append((env.now, value))

    def opener(env, gate):
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter(env, gate))
    env.process(opener(env, gate))
    env.run()
    assert seen == [(4.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env, gate):
        with pytest.raises(RuntimeError, match="boom"):
            yield gate
        return "handled"

    process = env.process(waiter(env, gate))
    gate.fail(RuntimeError("boom"))
    assert env.run(until=process) == "handled"


def test_unhandled_failure_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def waiter(env):
        yield AllOf(env, [env.timeout(2.0), env.timeout(5.0), env.timeout(1.0)])
        times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert times == [5.0]


def test_any_of_returns_at_first_event():
    env = Environment()
    times = []

    def waiter(env):
        yield AnyOf(env, [env.timeout(2.0), env.timeout(5.0)])
        times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert times == [2.0]


def test_triggered_any_of_unsubscribes_from_pending_members():
    """The loser of a race keeps no callback into the condition, so the
    condition and the winner are not held until the loser fires."""
    env = Environment()
    fast, slow, gate = env.timeout(1.0), env.timeout(5.0), env.event()
    race = AnyOf(env, [fast, slow, gate])
    assert fast in env.run(until=race)
    assert slow.callbacks == [] and gate.callbacks == []
    # Settled at construction by a processed member: the others are
    # never subscribed.
    late = env.event()
    assert AnyOf(env, [fast, late]).triggered
    assert late.callbacks == []
    env.run()
    assert env.now == 5.0


def test_failed_all_of_unsubscribes_from_pending_members():
    env = Environment()
    failing, pending = env.event(), env.event()
    both = AllOf(env, [failing, env.timeout(1.0), pending])

    def waiter(env):
        try:
            yield both
        except ValueError:
            return "caught"

    process = env.process(waiter(env))
    failing.fail(ValueError("boom"))
    assert env.run(until=process) == "caught"
    assert pending.callbacks == []
    env.run()
    assert env.now == 1.0


def test_all_of_empty_list_is_immediate():
    env = Environment()
    done = []

    def waiter(env):
        yield AllOf(env, [])
        done.append(env.now)

    env.process(waiter(env))
    env.run()
    assert done == [0.0]


def test_condition_value_exposes_component_values():
    env = Environment()
    collected = {}

    def waiter(env):
        first = env.timeout(1.0, value="one")
        second = env.timeout(2.0, value="two")
        result = yield AllOf(env, [first, second])
        collected["values"] = result.values()

    env.process(waiter(env))
    env.run()
    assert collected["values"] == ["one", "two"]


def test_and_or_operators_compose_events():
    env = Environment()
    times = []

    def waiter(env):
        yield (env.timeout(1.0) | env.timeout(9.0))
        times.append(env.now)
        yield (env.timeout(1.0) & env.timeout(3.0))
        times.append(env.now)

    env.process(waiter(env))
    env.run()
    assert times == [1.0, 4.0]


def test_interrupt_raises_inside_process():
    env = Environment()
    outcomes = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            outcomes.append("slept")
        except Interrupt as interrupt:
            outcomes.append(("interrupted", env.now, interrupt.cause))

    def interrupter(env, victim):
        yield env.timeout(3.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert outcomes == [("interrupted", 3.0, "wake up")]


def test_cannot_interrupt_finished_process():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_waiting_on_finished_process_returns_value_immediately():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)
        return 99

    def waiter(env, target):
        value = yield target
        return (env.now, value)

    target = env.process(quick(env))
    env.run(until=2.0)
    result = env.run(until=env.process(waiter(env, target)))
    assert result == (2.0, 99)


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    log = []

    def worker(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abc":
        env.process(worker(env, name))
    env.run()
    assert log == ["a", "b", "c"]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    assert env.peek() == 7.0


def test_peek_empty_queue_is_infinite():
    assert Environment().peek() == float("inf")


def test_nested_process_composition():
    env = Environment()

    def child(env, delay, value):
        yield env.timeout(delay)
        return value * 2

    def parent(env):
        first = yield env.process(child(env, 1.0, 10))
        second = yield env.process(child(env, 2.0, first))
        return second

    assert env.run(until=env.process(parent(env))) == 40
    assert env.now == 3.0


# -- structured fan-out join -------------------------------------------------------


def test_join_all_returns_values_in_order():
    env = Environment()

    def worker(env, delay, value):
        yield env.timeout(delay)
        return value

    def joiner(env):
        processes = [env.process(worker(env, delay, value))
                     for delay, value in ((3.0, "a"), (1.0, "b"))]
        results = yield from join_all(env, processes)
        return results

    assert env.run(until=env.process(joiner(env))) == ["a", "b"]
    assert env.now == 3.0


def test_join_all_empty_list_is_immediate():
    env = Environment()

    def joiner(env):
        results = yield from join_all(env, [])
        return results

    assert env.run(until=env.process(joiner(env))) == []
    assert env.now == 0.0


def test_join_all_failure_cancels_surviving_siblings():
    env = Environment()
    log = []

    def failer(env):
        yield env.timeout(1.0)
        raise RuntimeError("branch failed")

    def slow(env):
        try:
            yield env.timeout(10.0)
            log.append("finished")
        except Interrupt:
            log.append("interrupted")

    def joiner(env):
        yield from join_all(
            env, [env.process(failer(env)), env.process(slow(env))])

    with pytest.raises(RuntimeError, match="branch failed"):
        env.run(until=env.process(joiner(env)))
    env.run()
    assert log == ["interrupted"]


def test_join_all_late_second_failure_cannot_escape_the_run():
    """Regression: a sibling failing *after* the join already failed has
    no waiter left, so without pre-defusing its failure would crash
    ``env.run`` long after the joiner reported the first error."""
    env = Environment()

    def failer(env, delay, message):
        yield env.timeout(delay)
        raise RuntimeError(message)

    def stubborn(env):
        # Swallows the cancellation — like a handler with a broad
        # ``except`` around cleanup — and then fails on its own.
        try:
            yield env.timeout(2.0)
        except Interrupt:
            pass
        yield env.timeout(2.0)
        raise RuntimeError("second")

    def joiner(env):
        yield from join_all(
            env, [env.process(failer(env, 1.0, "first")),
                  env.process(stubborn(env))])

    with pytest.raises(RuntimeError, match="first"):
        env.run(until=env.process(joiner(env)))
    env.run()   # the stubborn sibling's own failure must not escape


def test_join_all_simultaneous_failures_report_the_first():
    env = Environment()

    def failer(env, message):
        yield env.timeout(1.0)
        raise RuntimeError(message)

    def joiner(env):
        yield from join_all(
            env, [env.process(failer(env, "alpha")),
                  env.process(failer(env, "beta"))])

    with pytest.raises(RuntimeError, match="alpha"):
        env.run(until=env.process(joiner(env)))
    env.run()


def test_join_all_interrupted_joiner_cancels_children():
    env = Environment()
    log = []

    def slow(env, name):
        try:
            yield env.timeout(10.0)
            log.append((name, "finished"))
        except Interrupt:
            log.append((name, "interrupted"))

    def joiner(env):
        try:
            yield from join_all(
                env, [env.process(slow(env, "a")), env.process(slow(env, "b"))])
        except Interrupt:
            log.append(("joiner", "interrupted"))

    process = env.process(joiner(env))

    def canceller(env):
        yield env.timeout(1.0)
        process.interrupt(cause="shutdown")

    env.process(canceller(env))
    env.run()
    assert sorted(log) == [("a", "interrupted"), ("b", "interrupted"),
                           ("joiner", "interrupted")]
