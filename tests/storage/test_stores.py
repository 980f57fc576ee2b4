"""Integration tests for blob, queue and table stores on the sim kernel."""

import numpy as np
import pytest

from repro.sim import Environment
from repro.storage import (
    BlobNotFound,
    BlobStore,
    CloudQueue,
    EntityNotFound,
    TableStore,
    TransactionMeter,
)
from repro.storage.payload import KB, MB
from repro.storage.queue import MessageTooLarge


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
    """Drive a storage generator to completion inside a process."""
    def process(env):
        result = yield from generator
        return result
    return env.run(until=env.process(process(env)))


# -- blob ---------------------------------------------------------------------

def test_blob_roundtrip(env, meter, rng):
    blob = BlobStore(env, meter, rng)
    run(env, blob.put("models/best", {"weights": [1, 2, 3]}))
    value = run(env, blob.get("models/best"))
    assert value == {"weights": [1, 2, 3]}
    assert meter.count(service="blob", operation="put") == 1
    assert meter.count(service="blob", operation="get") == 1


def test_blob_get_missing_raises_and_meters(env, meter, rng):
    blob = BlobStore(env, meter, rng)
    with pytest.raises(BlobNotFound):
        run(env, blob.get("absent"))
    assert meter.count(service="blob", operation="get") == 1


def test_blob_transfer_time_scales_with_size(env, meter, rng):
    from repro.sim import Constant
    from repro.storage.latency import StorageLatencyModel
    latency = StorageLatencyModel(base=Constant(0.01),
                                  bandwidth_bytes_per_s=1 * MB)
    blob = BlobStore(env, meter, rng, latency=latency)
    start = env.now
    run(env, blob.put("big", b"\x00" * (2 * MB)))
    # 0.01 base + 2 MB at 1 MB/s = 2.01 seconds.
    assert env.now - start == pytest.approx(2.01, abs=1e-6)


def test_blob_explicit_size_and_size_of(env, meter, rng):
    blob = BlobStore(env, meter, rng)
    run(env, blob.put("model", "opaque", size=5 * MB))
    assert blob.size_of("model") == 5 * MB
    with pytest.raises(BlobNotFound):
        blob.size_of("missing")


def test_blob_delete_and_list(env, meter, rng):
    blob = BlobStore(env, meter, rng)
    run(env, blob.put("a/1", 1))
    run(env, blob.put("a/2", 2))
    run(env, blob.put("b/1", 3))
    assert run(env, blob.list_prefix("a/")) == ["a/1", "a/2"]
    run(env, blob.delete("a/1"))
    assert not blob.exists("a/1")
    run(env, blob.delete("a/1"))  # idempotent


# -- queue --------------------------------------------------------------------

def test_queue_fifo_roundtrip(env, meter, rng):
    queue = CloudQueue(env, meter, rng)
    run(env, queue.enqueue("first"))
    run(env, queue.enqueue("second"))
    message = run(env, queue.poll())
    assert message.value == "first"
    assert message.dequeue_count == 1


def test_queue_empty_poll_is_metered(env, meter, rng):
    queue = CloudQueue(env, meter, rng)
    assert run(env, queue.poll()) is None
    assert meter.count(service="queue", operation="poll") == 1


def test_queue_receive_backs_off_and_meters_idle_polls(env, meter, rng):
    queue = CloudQueue(env, meter, rng, min_poll_interval=0.1,
                       max_poll_interval=1.0)

    def consumer(env):
        message = yield from queue.receive()
        return (env.now, message.value)

    def producer(env):
        yield env.timeout(5.0)
        yield from queue.enqueue("late")

    env.process(producer(env))
    when, value = env.run(until=env.process(consumer(env)))
    assert value == "late"
    assert when >= 5.0
    # Several idle polls must have been billed before the message arrived.
    assert meter.count(service="queue", operation="poll") > 3


def test_queue_receive_deadline_returns_none(env, meter, rng):
    queue = CloudQueue(env, meter, rng)

    def consumer(env):
        message = yield from queue.receive(deadline=2.0)
        return message

    assert env.run(until=env.process(consumer(env))) is None
    assert env.now >= 2.0


def test_queue_visibility_timeout_hides_message(env, meter, rng):
    queue = CloudQueue(env, meter, rng, visibility_timeout=10.0)
    run(env, queue.enqueue("job"))
    first = run(env, queue.poll())
    assert first.value == "job"
    # Invisible until the timeout elapses.
    assert run(env, queue.poll()) is None

    def later(env):
        yield env.timeout(11.0)
        message = yield from queue.poll()
        return message

    redelivered = env.run(until=env.process(later(env)))
    assert redelivered.value == "job"
    assert redelivered.dequeue_count == 2


def test_queue_delete_acknowledges(env, meter, rng):
    queue = CloudQueue(env, meter, rng)
    run(env, queue.enqueue("job"))
    message = run(env, queue.poll())
    run(env, queue.delete(message))

    def later(env):
        yield env.timeout(60.0)
        result = yield from queue.poll()
        return result

    assert env.run(until=env.process(later(env))) is None


def test_queue_payload_limit_enforced(env, meter, rng):
    queue = CloudQueue(env, meter, rng, max_message_size=64 * KB)
    with pytest.raises(MessageTooLarge):
        run(env, queue.enqueue(b"\x00" * (65 * KB)))


def test_queue_len_counts_visible_only(env, meter, rng):
    queue = CloudQueue(env, meter, rng, visibility_timeout=100.0)
    run(env, queue.enqueue(1))
    run(env, queue.enqueue(2))
    assert len(queue) == 2
    run(env, queue.poll())
    assert len(queue) == 1


# -- table --------------------------------------------------------------------

def test_table_insert_and_read(env, meter, rng):
    table = TableStore(env, meter, rng)
    run(env, table.insert("instance-1", "0001", {"event": "started"}))
    value = run(env, table.read("instance-1", "0001"))
    assert value == {"event": "started"}


def test_table_read_missing_raises_and_meters(env, meter, rng):
    table = TableStore(env, meter, rng)
    with pytest.raises(EntityNotFound):
        run(env, table.read("p", "r"))
    assert meter.count(service="table", operation="read") == 1


def test_table_etag_increments_on_replace(env, meter, rng):
    table = TableStore(env, meter, rng)
    assert run(env, table.insert("p", "r", 1)) == 0
    assert run(env, table.insert("p", "r", 2)) == 1


def test_table_read_partition_in_row_order(env, meter, rng):
    table = TableStore(env, meter, rng)
    run(env, table.insert("history", "0002", "second"))
    run(env, table.insert("history", "0001", "first"))
    run(env, table.insert("other", "0001", "noise"))
    events = run(env, table.read_partition("history"))
    assert events == ["first", "second"]
    assert meter.count(service="table", operation="query") == 1


def test_table_delete_partition(env, meter, rng):
    table = TableStore(env, meter, rng)
    run(env, table.insert("history", "0001", "a"))
    run(env, table.insert("history", "0002", "b"))
    run(env, table.insert("keep", "0001", "c"))
    removed = run(env, table.delete_partition("history"))
    assert removed == 2
    assert len(table) == 1
    assert table.contains("keep", "0001")


def test_meter_window_counts_show_idle_polling(env, meter, rng):
    queue = CloudQueue(env, meter, rng, min_poll_interval=1.0,
                       max_poll_interval=1.0)

    def idle_consumer(env):
        message = yield from queue.receive(deadline=10.0)
        return message

    consumer = env.process(idle_consumer(env))
    env.run(until=5.0)
    halfway = len(meter)
    env.run(until=consumer)
    # Transactions occur across the whole idle period, not just at the start.
    assert halfway > 0
    assert len(meter) > halfway
