"""A finished spec frees its memory through reference counting.

A spec's testbed used to be one large reference cycle (environment,
queued events, suspended processes, services, meters), so every spec
left its whole world to the cyclic garbage collector.  These tests pin
what is now released without it:

* a function handler that wins its deadline race is freed when it
  finishes, not when the losing deadline fires;
* one ``execute_spec`` leaves a bounded amount of cyclic garbage per
  kernel event it scheduled.  The cycles that remain are named in
  EXPERIMENTS.md ("What a finished spec leaves behind").
"""

import gc
import weakref

import pytest

from repro.core.parallel import CampaignSpec, execute_spec
from repro.core.testbed import Testbed
from repro.platforms.backend import get_backend
from repro.platforms.base import FunctionSpec
from repro.platforms.faults import FaultPlan
from repro.sim import Environment


@pytest.fixture
def collector_off():
    """Disable the cyclic collector: only reference counting frees."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("platform", ["aws", "azure", "gcp"])
def test_handler_that_beats_its_deadline_is_freed_at_once(platform,
                                                          collector_off):
    testbed = Testbed(seed=3, platforms=[platform])
    backend = get_backend(platform)
    handlers = []

    def handler(ctx, event):
        handlers.append(weakref.ref(ctx.env.active_process))
        yield ctx.env.timeout(1.0)
        return event

    backend.register_function(
        testbed, FunctionSpec(name="quick", handler=handler, timeout_s=300.0))
    testbed.run(backend.invoke_function(testbed, "quick", "payload"))
    testbed.advance(10.0)
    # The 300 s deadline is still pending, but the handler is gone.
    assert testbed.now < 300.0
    assert len(handlers) == 1 and handlers[0]() is None


def count_events(monkeypatch):
    """Patch ``Environment.run`` to count the events it schedules."""
    counted = [0]
    run = Environment.run

    def counting_run(env, *args, **kwargs):
        before = env._sequence
        try:
            return run(env, *args, **kwargs)
        finally:
            counted[0] += env._sequence - before

    monkeypatch.setattr(Environment, "run", counting_run)
    return counted


#: (spec, most unreachable objects per scheduled event).  Measured on
#: CPython 3.11: the Az-Dorch spec leaves 0.63 per event (2.29 before
#: finished specs freed their memory) and the AWS-Step spec 0.30 (2.69
#: before); each bound leaves room for other interpreter versions.
GARBAGE_BOUNDS = [
    pytest.param(
        CampaignSpec(deployment="Az-Dorch", iterations=3, seed=0,
                     audit=False),
        1.2, id="az-dorch-latency"),
    pytest.param(
        CampaignSpec(deployment="AWS-Step", campaign="reliability",
                     iterations=10, seed=0, audit=True,
                     fault_plan=FaultPlan(
                         queue_delay_probability=0.2, queue_delay_s=2.0,
                         queue_duplication_probability=0.3,
                         retry_max_attempts=3).to_items()),
        1.0, id="aws-step-reliability-audited"),
]


@pytest.mark.parametrize("spec, bound", GARBAGE_BOUNDS)
def test_execute_spec_leaves_bounded_cyclic_garbage(spec, bound,
                                                    monkeypatch,
                                                    collector_off):
    execute_spec(spec)   # warm the workload caches first
    gc.collect()
    events = count_events(monkeypatch)
    outcome = execute_spec(spec)
    unreachable = gc.collect()
    assert outcome.campaign.runs
    assert events[0] > 0
    assert unreachable / events[0] <= bound, (unreachable, events[0])
