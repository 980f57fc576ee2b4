"""Idle-poll elision: fewer kernel events, the same transaction bill.

The fast path replaces sampled empty polls on a provably idle queue with
a blocking wait plus arithmetic billing.  These tests pin the contract:

* the bill matches sampled polling (elision changes *when* polls are
  recorded, not how many);
* the kernel dispatches far fewer events during idle waits;
* anything that makes poll timing observable — fault plans, depth
  bounds — falls back to honest sampled polling;
* campaign outcomes (including audit verdicts) stay bit-identical
  across the serial runner, the worker pool, and cache replay with the
  fast path on and off, with and without a fault plan.
"""

import json

import numpy as np
import pytest

from repro.core.cache import ResultCache
from repro.core.parallel import CampaignSpec, ParallelRunner, execute_spec
from repro.core.persistence import (
    audit_to_dict,
    campaign_to_dict,
    cost_report_to_dict,
)
from repro.platforms.faults import FaultPlan
from repro.sim import Environment
from repro.storage.meter import TransactionMeter
from repro.storage.queue import CloudQueue


def make_queue(elision, **kwargs):
    env = Environment()
    meter = TransactionMeter()
    queue = CloudQueue(env, meter, np.random.default_rng(0),
                       idle_poll_elision=elision, **kwargs)
    return env, meter, queue


def drain_receive(env, queue, deadline):
    def consumer(env):
        yield from queue.receive(deadline=deadline)

    env.process(consumer(env))
    env.run()


# -- billing parity and event reduction --------------------------------------------

def test_elision_bills_like_sampled_polling():
    env_s, meter_s, queue_s = make_queue(elision=False)
    drain_receive(env_s, queue_s, deadline=600.0)
    sampled = meter_s.count("queue", "poll")

    env_e, meter_e, queue_e = make_queue(elision=True)
    drain_receive(env_e, queue_e, deadline=600.0)
    elided = meter_e.count("queue", "poll")

    # The arithmetic ignores per-poll service latency (ms against 30 s
    # backoff), so allow a poll or two of drift over ten minutes.
    assert sampled > 10
    assert abs(elided - sampled) <= 3


def test_elision_cuts_kernel_events():
    env_s, _, queue_s = make_queue(elision=False)
    drain_receive(env_s, queue_s, deadline=600.0)

    env_e, _, queue_e = make_queue(elision=True)
    drain_receive(env_e, queue_e, deadline=600.0)

    assert env_e._sequence * 5 < env_s._sequence


def test_meter_read_settles_a_parked_consumer():
    """A consumer parked with no deadline still accrues its bill: any
    meter read settles the outstanding polls up to the current time."""
    env, meter, queue = make_queue(elision=True)

    def consumer(env):
        yield from queue.receive()   # parks forever — nobody enqueues

    env.process(consumer(env))
    env.run(until=600.0)
    parked = meter.count("queue", "poll")

    env_s, meter_s, queue_s = make_queue(elision=False)
    drain_receive(env_s, queue_s, deadline=600.0)
    sampled = meter_s.count("queue", "poll")
    assert abs(parked - sampled) <= 3


def test_elided_consumer_wakes_on_enqueue():
    env, meter, queue = make_queue(elision=True)
    got = []

    def consumer(env):
        message = yield from queue.receive()
        got.append((env.now, message.value))

    def producer(env):
        yield env.timeout(100.0)
        yield from queue.enqueue("ping")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert len(got) == 1
    at, value = got[0]
    assert value == "ping"
    # Woken by the enqueue, then one real (metered) poll — sub-second
    # delivery, not a backoff period later.
    assert 100.0 <= at < 101.0


# -- fallback to sampled polling ---------------------------------------------------

class _InertFaults:
    """A fault plan presence marker: injects nothing, disables elision."""

    def draw_queue_faults(self, name):
        return 0.0, False


@pytest.mark.parametrize("kwargs", [{"faults": _InertFaults()},
                                    {"max_depth": 100}],
                         ids=["fault-plan", "depth-bound"])
def test_observable_timing_disables_elision(kwargs, monkeypatch):
    env, meter, queue = make_queue(elision=True, **kwargs)
    poll_counts = []
    record = meter.record

    def spy(service, account, operation, size=0, billable=True, count=1):
        if operation == "poll":
            poll_counts.append(count)
        record(service, account, operation, size, billable, count)

    monkeypatch.setattr(meter, "record", spy)
    drain_receive(env, queue, deadline=600.0)
    # Sampled polling: one record per poll, nothing accrued lazily.
    assert all(count == 1 for count in poll_counts)
    assert len(poll_counts) > 10
    assert not queue._idle_accruals


# -- campaign-level parity ---------------------------------------------------------

def _spec(elision, **kwargs):
    return CampaignSpec(
        deployment="Az-Dorch", workload="ml-training", scale="small",
        iterations=2, seed=17, audit=True,
        calibration_overrides={"azure.idle_poll_elision": elision},
        **kwargs)


def outcome_blob(outcome):
    return json.dumps({
        "campaign": campaign_to_dict(outcome.campaign),
        "cost": cost_report_to_dict(outcome.cost),
        "idle": outcome.idle_transactions,
        "audit": audit_to_dict(outcome.audit)
        if outcome.audit is not None else None,
    }, sort_keys=True, default=repr)


def test_elision_preserves_campaign_bill_and_verdict():
    on = execute_spec(_spec(True))
    off = execute_spec(_spec(False))
    assert on.audit.passed and off.audit.passed
    assert on.campaign.latencies and off.campaign.latencies
    # Elision shifts poll timestamps (and the rng draws their latencies
    # consumed), so runs are not bit-identical across the flag — but the
    # transaction bill must agree to within backoff-arithmetic drift.
    on_polls = on.cost.transaction_count
    off_polls = off.cost.transaction_count
    assert abs(on_polls - off_polls) <= max(5, 0.05 * off_polls)


FAULTED = dict(campaign="reliability",
               fault_plan=FaultPlan(error_probability=0.2,
                                    queue_delay_probability=0.3,
                                    retry_max_attempts=3).to_items())


@pytest.mark.parametrize("elision", [True, False],
                         ids=["elision-on", "elision-off"])
@pytest.mark.parametrize("extra", [{}, FAULTED],
                         ids=["fault-free", "fault-plan"])
def test_bit_identical_across_runners(elision, extra, tmp_path):
    """Acceptance: serial, worker pool, and cache replay agree on every
    observable — including audit verdicts — whichever way the idle-poll
    flag is set, with and without a fault plan."""
    spec = _spec(elision, **extra)
    serial = execute_spec(spec)
    runner = ParallelRunner(workers=2, cache=ResultCache(tmp_path / "c"))
    worker = runner.run([spec])[0]
    replay = runner.run([spec])[0]
    assert not worker.cached and replay.cached
    reference = outcome_blob(serial)
    assert outcome_blob(worker) == reference
    assert outcome_blob(replay) == reference
    assert serial.audit is not None and serial.audit.passed
