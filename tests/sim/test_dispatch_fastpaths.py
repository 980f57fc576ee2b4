"""Regression tests for the kernel's dispatch fast paths.

The optimized kernel routes zero-delay events through deques instead of
the heap.  These tests pin the observable contracts that fast path must
preserve: FIFO order among same-timestamp events (whether they live on
the heap, the ready deque, or both), and each timeout delivering its own
value.
"""

from repro.sim import Environment


def test_same_timestamp_heap_events_fire_in_schedule_order():
    env = Environment()
    log = []

    def worker(env, name):
        yield env.timeout(1.0)
        log.append(name)

    for name in "abcde":
        env.process(worker(env, name))
    env.run()
    assert log == list("abcde")


def test_heap_and_ready_deque_ties_respect_schedule_order():
    """A delayed timeout (heap) scheduled before an immediate event
    (ready deque) fires first when both come due at the same instant."""
    env = Environment()
    log = []

    def early(env):
        yield env.timeout(1.0)          # heap, lower sequence
        log.append("early")

    def late(env):
        yield env.timeout(1.0)          # heap
        # Now at t=1.0: create an already-triggered event (ready deque)
        # and wait on it.  The remaining heap entry from ``tail`` also
        # fires at t=1.0 but was scheduled earlier, so it must win.
        gate = env.event()
        gate.succeed(None)
        yield gate
        log.append("late")

    def tail(env):
        yield env.timeout(1.0)          # heap, scheduled after early
        log.append("tail")

    env.process(early(env))
    env.process(late(env))
    env.process(tail(env))
    env.run()
    assert log == ["early", "tail", "late"]


def test_process_creation_preempts_pending_same_time_events():
    """Process initialization is URGENT: a process spawned from a
    callback runs before NORMAL events already queued at the same time."""
    env = Environment()
    log = []

    def child(env):
        log.append("child")
        yield env.timeout(0.0)

    def parent(env):
        yield env.timeout(1.0)
        env.timeout(0.0)                # NORMAL, queued first
        env.process(child(env))         # URGENT, queued second — runs first
        yield env.timeout(0.5)
        log.append("parent")

    env.process(parent(env))
    env.run()
    assert log == ["child", "parent"]


def test_recycled_timeout_delivers_fresh_value():
    env = Environment()
    seen = []

    def worker(env):
        first = yield env.timeout(1.0, value="one")
        second = yield env.timeout(1.0, value="two")
        seen.append((first, second))

    env.process(worker(env))
    env.run()
    assert seen == [("one", "two")]
