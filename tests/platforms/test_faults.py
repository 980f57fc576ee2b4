"""Tests for the fault-injection subsystem: plans, injector, accounting.

The load-bearing properties are determinism (every fault decision comes
from a named RNG stream, so ``(seed, plan)`` fixes the chaos) and
honest billing (a crashed invocation spends — and is billed for — the
partial execution time up to the drawn crash point).
"""

import numpy as np
import pytest

from repro.platforms.base import FunctionContext, FunctionSpec
from repro.platforms.faults import (
    ContainerCrash,
    FaultInjector,
    FaultPlan,
    TransientFault,
)
from repro.sim import Environment, RandomStreams
from repro.storage.meter import TransactionMeter
from repro.storage.queue import CloudQueue

pytestmark = pytest.mark.faults


# -- FaultPlan validation ----------------------------------------------------------

def test_plan_rejects_out_of_range_probabilities():
    for name in ("crash_probability", "error_probability",
                 "straggler_probability", "queue_delay_probability",
                 "queue_duplication_probability"):
        with pytest.raises(ValueError):
            FaultPlan(**{name: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{name: -0.1})


def test_plan_rejects_bad_shape_parameters():
    with pytest.raises(ValueError):
        FaultPlan(crash_fraction_min=0.8, crash_fraction_max=0.2)
    with pytest.raises(ValueError):
        FaultPlan(crash_fraction_max=1.5)
    with pytest.raises(ValueError):
        FaultPlan(straggler_factor=0.5)
    with pytest.raises(ValueError):
        FaultPlan(queue_delay_s=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(retry_interval_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan(retry_backoff=0.9)
    with pytest.raises(ValueError):
        FaultPlan(host_crash_times=(-5.0,))


def test_plan_sorts_host_crash_times():
    plan = FaultPlan(host_crash_times=(30.0, 10.0, 20.0))
    assert plan.host_crash_times == (10.0, 20.0, 30.0)


def test_plan_rejects_overlapping_host_crash_schedules():
    with pytest.raises(ValueError, match="must not repeat"):
        FaultPlan(host_crash_times=(10.0, 10.0))


def test_plan_validates_correlated_outage_fields():
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan(outage_windows=[(-5.0, 10.0)])
    with pytest.raises(ValueError, match="positive"):
        FaultPlan(outage_windows=[(5.0, 0.0)])
    with pytest.raises(ValueError, match="overlap"):
        FaultPlan(outage_windows=[(10.0, 20.0), (25.0, 5.0)])
    with pytest.raises(ValueError, match="outage_mode"):
        FaultPlan(outage_windows=[(10.0, 5.0)], outage_mode="purple")
    with pytest.raises(ValueError, match="drawn outages"):
        FaultPlan(outage_count=2)
    with pytest.raises(ValueError):
        FaultPlan(gray_latency_factor=0.5)
    with pytest.raises(ValueError):
        FaultPlan(gray_error_probability=1.5)
    with pytest.raises(ValueError):
        FaultPlan(brownout_delay_s=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(partition_drop_probability=-0.1)


def test_plan_outage_activation_flags():
    plan = FaultPlan(outage_windows=[(60.0, 30.0)])
    assert plan.outage_faults and plan.wraps_handlers and plan.enabled
    assert not plan.handler_faults
    assert not plan.queue_faults
    browned = FaultPlan(outage_windows=[(60.0, 30.0)],
                        brownout_delay_s=2.0)
    assert browned.queue_faults
    # Brownout/partition knobs without a window never activate anything.
    assert not FaultPlan(brownout_delay_s=2.0).enabled


def test_drawn_outage_windows_are_deterministic_and_merged():
    plan = FaultPlan(outage_count=4, outage_horizon_s=100.0,
                     outage_duration_s=30.0)
    first = FaultInjector(plan=plan, streams=RandomStreams(seed=9))
    second = FaultInjector(plan=plan, streams=RandomStreams(seed=9))
    other = FaultInjector(plan=plan, streams=RandomStreams(seed=10))
    assert first.outage_windows == second.outage_windows
    assert first.outage_windows != other.outage_windows
    # 4 windows of 30s in a 100s horizon must overlap: merged windows
    # are disjoint and strictly ordered.
    for (s1, e1), (s2, e2) in zip(first.outage_windows,
                                  first.outage_windows[1:]):
        assert e1 < s2
    assert first.in_outage(first.outage_windows[0][0])
    assert not first.in_outage(first.outage_windows[0][1])


def test_crash_outage_starts_only_in_crash_mode():
    crash = FaultInjector(plan=FaultPlan(outage_windows=[(60.0, 30.0)]),
                          streams=RandomStreams(seed=1))
    gray = FaultInjector(
        plan=FaultPlan(outage_windows=[(60.0, 30.0)], outage_mode="gray",
                       gray_latency_factor=2.0),
        streams=RandomStreams(seed=1))
    assert crash.crash_outage_starts == (60.0,)
    assert gray.crash_outage_starts == ()


def test_plan_activation_flags():
    assert not FaultPlan().enabled
    assert FaultPlan(crash_probability=0.1).handler_faults
    assert FaultPlan(queue_delay_probability=0.1).queue_faults
    assert not FaultPlan(queue_delay_probability=0.1).handler_faults
    assert FaultPlan(host_crash_times=(100.0,)).enabled


def test_plan_targets_filter():
    plan = FaultPlan(crash_probability=0.5, targets=("train", "infer"))
    assert plan.applies_to("train")
    assert not plan.applies_to("upload")
    assert FaultPlan(crash_probability=0.5).applies_to("anything")


# -- spec round-trip ---------------------------------------------------------------

def test_plan_items_round_trip():
    plan = FaultPlan(crash_probability=0.25, straggler_probability=0.1,
                     straggler_factor=8.0, retry_max_attempts=3,
                     host_crash_times=(200.0, 100.0), targets=("f",))
    items = plan.to_items()
    assert items == tuple(sorted(items))       # canonical (hash-stable)
    assert FaultPlan.from_items(items) == plan
    # Default fields are elided from the items.
    assert "queue_delay_s" not in dict(items)


def test_plan_from_items_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan field"):
        FaultPlan.from_items([("chaos_level", 11)])


# -- FaultInjector construction ----------------------------------------------------

def test_injector_back_compat_constructor():
    injector = FaultInjector(crash_probability=0.3)
    assert injector.plan.crash_probability == 0.3
    assert injector.crashes == 0 and injector.invocations == 0
    with pytest.raises(ValueError):
        FaultInjector(crash_probability=2.0)


def test_injector_syncs_probability_from_plan():
    plan = FaultPlan(crash_probability=0.7)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=1))
    assert injector.crash_probability == 0.7


def test_record_runtime_ignores_nonpositive():
    injector = FaultInjector(crash_probability=0.0)
    injector.record_runtime("f", 0.0)
    injector.record_runtime("f", -1.0)
    assert injector._runtimes == {}
    injector.record_runtime("f", 2.5)
    assert injector._runtimes == {"f": 2.5}


# -- handler wrapping --------------------------------------------------------------

def slow_handler(ctx, event):
    yield from ctx.busy(10.0)
    return "done"


def make_ctx(env, spec, seed=0):
    return FunctionContext(env, spec, np.random.default_rng(seed))


def test_crash_at_fraction_spends_partial_time_and_bills_it():
    """Satellite: the crash point is a seeded fraction of the runtime.

    The first crash has no observed runtime to scale from, so the
    handler completes (its result is discarded); once a duration is
    known, crashes land at ``fraction × runtime`` and only the partial
    time is spent and accounted as wasted GB-s.
    """
    plan = FaultPlan(crash_probability=1.0,
                     crash_fraction_min=0.5, crash_fraction_max=0.5)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=9))
    spec = FunctionSpec("slow", slow_handler, memory_mb=1024)
    wrapped = injector.wrap(slow_handler, "slow")
    env = Environment()

    def invoke_once(env):
        yield from wrapped(make_ctx(env, spec), {})

    with pytest.raises(ContainerCrash):
        env.run(until=env.process(invoke_once(env)))
    # First crash: no known runtime, full 10 s spent then the crash.
    assert env.now == pytest.approx(10.0)
    assert injector.wasted_compute_s == pytest.approx(10.0)

    with pytest.raises(ContainerCrash):
        env.run(until=env.process(invoke_once(env)))
    # Second crash lands at 0.5 × the observed 10 s runtime: 5 s spent.
    assert env.now == pytest.approx(15.0)
    assert injector.wasted_compute_s == pytest.approx(15.0)
    # 1024 MB → exactly 1 GB, so wasted GB-s equals wasted seconds.
    assert injector.wasted_gb_s == pytest.approx(15.0)
    assert injector.crashes == 2 and injector.invocations == 2
    assert injector.observed_crash_rate == 1.0


def test_no_faults_passes_result_through_and_records_runtime():
    injector = FaultInjector(plan=FaultPlan(),
                             streams=RandomStreams(seed=3))
    spec = FunctionSpec("slow", slow_handler)
    wrapped = injector.wrap(slow_handler, "slow")
    env = Environment()

    def invoke(env):
        result = yield from wrapped(make_ctx(env, spec), {})
        return result

    assert env.run(until=env.process(invoke(env))) == "done"
    assert injector._runtimes["slow"] == pytest.approx(10.0)
    assert injector.crashes == 0


def test_transient_fault_raises_before_any_work():
    plan = FaultPlan(error_probability=1.0)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=2))
    spec = FunctionSpec("slow", slow_handler)
    wrapped = injector.wrap(slow_handler, "slow")
    env = Environment()

    def invoke(env):
        yield from wrapped(make_ctx(env, spec), {})

    with pytest.raises(TransientFault):
        env.run(until=env.process(invoke(env)))
    assert env.now == 0.0                      # no compute was spent
    assert injector.transient_errors == 1


def test_straggler_multiplies_cpu_factor():
    plan = FaultPlan(straggler_probability=1.0, straggler_factor=3.0)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=4))

    def quick(ctx, event):
        yield from ctx.busy(2.0)
        return "ok"

    spec = FunctionSpec("quick", quick)
    wrapped = injector.wrap(quick, "quick")
    env = Environment()

    def invoke(env):
        result = yield from wrapped(make_ctx(env, spec), {})
        return result

    assert env.run(until=env.process(invoke(env))) == "ok"
    assert env.now == pytest.approx(6.0)       # 2 s × straggler factor 3
    assert injector.stragglers == 1


def test_fault_decisions_are_deterministic_per_seed():
    plan = FaultPlan(crash_probability=0.5)
    spec = FunctionSpec("h", slow_handler)

    def crash_pattern(seed):
        env = Environment()
        injector = FaultInjector(plan=plan,
                                 streams=RandomStreams(seed=seed))
        wrapped = injector.wrap(slow_handler, "h")
        crashed = []

        def driver(env):
            for index in range(20):
                try:
                    yield from wrapped(make_ctx(env, spec, seed=index), {})
                    crashed.append(False)
                except ContainerCrash:
                    crashed.append(True)

        env.run(until=env.process(driver(env)))
        return crashed, env.now

    assert crash_pattern(41) == crash_pattern(41)
    pattern, _ = crash_pattern(41)
    assert 0 < sum(pattern) < 20               # p=0.5 actually fired


# -- queue faults ------------------------------------------------------------------

def test_draw_queue_faults_requires_streams():
    plan = FaultPlan(queue_delay_probability=1.0)
    injector = FaultInjector(plan=plan)       # no streams → inert
    assert injector.draw_queue_faults("work") == (0.0, False)


def test_draw_queue_faults_delay_and_duplicate():
    plan = FaultPlan(queue_delay_probability=1.0, queue_delay_s=7.0,
                     queue_duplication_probability=1.0)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=6))
    assert injector.draw_queue_faults("work") == (7.0, True)
    assert injector.delayed_messages == 1
    assert injector.duplicated_messages == 1


def test_cloud_queue_applies_delay_and_duplication():
    env = Environment()
    meter = TransactionMeter()
    plan = FaultPlan(queue_delay_probability=1.0, queue_delay_s=7.0,
                     queue_duplication_probability=1.0)
    injector = FaultInjector(plan=plan, streams=RandomStreams(seed=8))
    queue = CloudQueue(env, meter, np.random.default_rng(0), name="work",
                       faults=injector)

    def producer(env):
        yield from queue.enqueue({"job": 1})

    env.run(until=env.process(producer(env)))
    messages = queue._messages
    assert len(messages) == 2                  # at-least-once delivery
    assert all(m.visible_at == pytest.approx(env.now + 7.0)
               for m in messages)
    # The duplicate is the broker's doing: only one enqueue is metered.
    assert meter.count(service="queue", operation="enqueue") == 1
