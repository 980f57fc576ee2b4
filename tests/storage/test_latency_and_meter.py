"""Tests for storage latency models and the batched transaction meter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Constant
from repro.storage.latency import (
    StorageLatencyModel,
    default_blob_latency,
    default_queue_latency,
    default_table_latency,
)
from repro.storage.meter import TransactionMeter
from repro.storage.payload import MB


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def test_operation_time_adds_transfer(rng):
    model = StorageLatencyModel(base=Constant(0.01),
                                bandwidth_bytes_per_s=10 * MB)
    assert model.operation_time(rng, size=0) == pytest.approx(0.01)
    assert model.operation_time(rng, size=10 * MB) == pytest.approx(1.01)


def test_operation_time_never_negative(rng):
    model = StorageLatencyModel(base=Constant(-1.0))
    assert model.operation_time(rng) == 0.0


def test_default_models_ordering(rng):
    """Blob ops are slower than queue/table ops at the median."""
    blob = np.median([default_blob_latency().operation_time(rng)
                      for _ in range(500)])
    queue = np.median([default_queue_latency().operation_time(rng)
                       for _ in range(500)])
    table = np.median([default_table_latency().operation_time(rng)
                       for _ in range(500)])
    assert blob > queue
    assert blob > table
    assert 0.001 < queue < 0.1


# -- meter batching --------------------------------------------------------------

def test_meter_count_includes_batches():
    meter = TransactionMeter()
    meter.record("queue", "a", "poll")
    meter.record("queue", "a", "poll", count=99)
    assert meter.count(service="queue") == 100
    assert len(meter) == 100


def test_meter_rejects_zero_count():
    with pytest.raises(ValueError):
        TransactionMeter().record("queue", "a", "poll", count=0)


def test_meter_counts_by_respects_batches():
    meter = TransactionMeter()
    meter.record("queue", "a", "poll", count=10)
    meter.record("table", "a", "insert", count=5)
    meter.record("queue", "a", "enqueue")
    assert meter.counts_by("service") == {"queue": 11, "table": 5}
    assert meter.counts_by("operation")["poll"] == 10


def test_meter_bytes_moved_scales_with_count():
    meter = TransactionMeter()
    meter.record("blob", "a", "put", size=100, count=3)
    assert meter.bytes_moved() == 300


def test_meter_billable_filter():
    meter = TransactionMeter()
    meter.record("queue", "a", "poll", billable=False, count=7)
    assert meter.count(service="queue") == 0
    assert meter.count(service="queue", billable_only=False) == 7


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_meter_count_equals_sum_of_batches(counts):
    meter = TransactionMeter()
    for count in counts:
        meter.record("queue", "a", "poll", count=count)
    assert meter.count(service="queue") == sum(counts)
    assert len(meter) == sum(counts)
