"""Storage edge cases: redelivery, conditional updates, overwrites.

The corners the invariant auditor leans on: visibility-timeout
redelivery (at-least-once, spaced by the timeout, never flagged as a
broker duplicate), optimistic-concurrency conflicts on the table store,
and last-writer-wins blob overwrites.
"""

import numpy as np
import pytest

from repro.core.audit import InvariantAuditor
from repro.sim import Environment
from repro.storage import (
    BlobStore,
    CloudQueue,
    EntityNotFound,
    PreconditionFailed,
    TableStore,
    TransactionMeter,
)
from repro.storage.payload import MB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def meter(env):
    return TransactionMeter()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def run(env, generator):
    def process(env):
        result = yield from generator
        return result
    return env.run(until=env.process(process(env)))


# -- queue: visibility-timeout redelivery under observation ------------------------

def test_redelivery_is_observed_not_flagged_as_duplicate(env, meter, rng):
    """A message abandoned past its visibility timeout is redelivered —
    the auditor's queue record must see one enqueue, two dequeues spaced
    by at least the timeout, and zero broker duplicates."""
    auditor = InvariantAuditor()
    env.monitor = auditor
    queue = CloudQueue(env, meter, rng, name="work",
                       visibility_timeout=10.0)
    run(env, queue.enqueue("job"))
    first = run(env, queue.poll())
    assert first.value == "job"

    def later(env):
        yield env.timeout(10.5)
        message = yield from queue.poll()
        return message

    second = env.run(until=env.process(later(env)))
    assert second.dequeue_count == 2

    (record,) = auditor._queues
    assert record.next_ordinal == 1             # one logical message
    assert record.duplicates == []
    (times,) = record.dequeues.values()
    assert len(times) == 2
    assert times[1] - times[0] >= queue.visibility_timeout
    # And the delivery check agrees.
    check = auditor.finalize().checks[3]
    assert check.invariant == "delivery_semantics" and check.passed


def test_unsanctioned_broker_duplicate_fails_the_delivery_check(env, meter,
                                                                rng):
    """A duplicate enqueue with no fault plan permitting duplication is a
    delivery-semantics violation with the queue named in the evidence."""
    auditor = InvariantAuditor()
    env.monitor = auditor
    queue = CloudQueue(env, meter, rng, name="work")
    run(env, queue.enqueue("job"))
    (record,) = auditor._queues
    twin = run(env, queue.poll())
    record.note_enqueue(twin, duplicate=True)   # broker misbehaves

    check = auditor.finalize().checks[3]
    assert check.invariant == "delivery_semantics" and not check.passed
    assert any("work" in item and "duplicate" in item
               for item in check.evidence)


def test_queues_register_with_monitor_at_construction(env, meter, rng):
    auditor = InvariantAuditor()
    env.monitor = auditor
    CloudQueue(env, meter, rng, name="a")
    CloudQueue(env, meter, rng, name="a")       # same name, distinct record
    labels = [record.label for record in auditor._queues]
    assert labels == ["a#0", "a#1"]


def test_queue_without_monitor_has_no_observer(env, meter, rng):
    queue = CloudQueue(env, meter, rng)
    assert queue._observer is None
    run(env, queue.enqueue("job"))              # hooks stay inert


# -- table: conditional updates ----------------------------------------------------

def test_conditional_update_bumps_etag(env, meter, rng):
    table = TableStore(env, meter, rng)
    etag = run(env, table.insert("lease", "owner", "worker-1"))
    new_etag = run(env, table.update("lease", "owner", "worker-2",
                                     if_match=etag))
    assert new_etag == etag + 1
    assert run(env, table.read("lease", "owner")) == "worker-2"
    assert meter.count(service="table", operation="update") == 1


def test_conditional_update_conflict_raises_and_preserves_row(env, meter,
                                                              rng):
    table = TableStore(env, meter, rng)
    etag = run(env, table.insert("lease", "owner", "worker-1"))
    run(env, table.update("lease", "owner", "worker-2", if_match=etag))
    with pytest.raises(PreconditionFailed) as error:
        run(env, table.update("lease", "owner", "worker-3", if_match=etag))
    assert error.value.key == ("lease", "owner")
    assert error.value.expected == etag
    assert error.value.actual == etag + 1
    # The loser's write never landed, but its round trip was billed.
    assert run(env, table.read("lease", "owner")) == "worker-2"
    assert meter.count(service="table", operation="update") == 2


def test_conditional_update_of_missing_row_raises(env, meter, rng):
    table = TableStore(env, meter, rng)
    with pytest.raises(EntityNotFound):
        run(env, table.update("lease", "gone", "value", if_match=0))
    assert meter.count(service="table", operation="update") == 1


# -- blob: overwrite semantics -----------------------------------------------------

def test_blob_overwrite_replaces_value_and_size(env, meter, rng):
    blob = BlobStore(env, meter, rng)
    run(env, blob.put("model", "v1", size=1 * MB))
    run(env, blob.put("model", "v2", size=3 * MB))
    assert run(env, blob.get("model")) == "v2"
    assert blob.size_of("model") == 3 * MB
    assert run(env, blob.list_prefix("model")) == ["model"]
    assert meter.count(service="blob", operation="put") == 2


def test_blob_overwrite_transfer_billed_at_new_size(env, meter, rng):
    from repro.sim import Constant
    from repro.storage.latency import StorageLatencyModel
    latency = StorageLatencyModel(base=Constant(0.01),
                                  bandwidth_bytes_per_s=1 * MB)
    blob = BlobStore(env, meter, rng, latency=latency)
    run(env, blob.put("model", b"\x00" * (1 * MB)))
    start = env.now
    run(env, blob.put("model", b"\x00" * (2 * MB)))
    # The overwrite pays for its own 2 MB, not the old object's 1 MB.
    assert env.now - start == pytest.approx(2.01, abs=1e-6)
