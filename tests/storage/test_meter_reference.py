"""The per-key transaction meter against a list-of-records reference.

``TransactionMeter`` keeps one ``[count, bytes]`` total per (service,
account, operation, billable) key.  The reference below keeps one record
per ``record()`` call, the way the meter once did, and answers every
query by scanning them.  Seeded random call sequences, mixing services,
accounts, operations, sizes, billability and batched counts, must read
back identically through every query the meter offers.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest

from repro.storage import TransactionMeter

SERVICES = ("queue", "table", "blob")
ACCOUNTS = ("hub", "app", "s3")
OPERATIONS = ("poll", "enqueue", "read", "insert", "put")
FIELDS = ("service", "account", "operation", "billable")


@dataclass(frozen=True)
class Record:
    service: str
    account: str
    operation: str
    size: int
    billable: bool
    count: int


class ReferenceMeter:
    """One frozen record per ``record()`` call; every read scans them."""

    def __init__(self):
        self.records = []

    def record(self, service, account, operation, size=0, billable=True,
               count=1):
        self.records.append(
            Record(service, account, operation, size, billable, count))

    def count(self, service=None, operation=None, account=None,
              billable_only=True):
        return sum(entry.count for entry in self.records
                   if (service is None or entry.service == service)
                   and (operation is None or entry.operation == operation)
                   and (account is None or entry.account == account)
                   and (not billable_only or entry.billable))

    def counts_by(self, key, billable_only=True):
        histogram = {}
        for entry in self.records:
            if billable_only and not entry.billable:
                continue
            value = getattr(entry, key)
            histogram[value] = histogram.get(value, 0) + entry.count
        return histogram

    def bytes_moved(self, service=None, operation=None):
        return sum(entry.size * entry.count for entry in self.records
                   if (service is None or entry.service == service)
                   and (operation is None or entry.operation == operation))

    def __len__(self):
        return sum(entry.count for entry in self.records)


def assert_same_reads(meter, reference):
    services = (None,) + SERVICES + ("absent",)
    operations = (None,) + OPERATIONS
    for service, operation, account, billable_only in itertools.product(
            services, operations, (None,) + ACCOUNTS, (True, False)):
        assert meter.count(service, operation, account, billable_only) == \
            reference.count(service, operation, account, billable_only)
    for key, billable_only in itertools.product(FIELDS, (True, False)):
        # Equal histograms in the same first-seen key order.
        assert list(meter.counts_by(key, billable_only).items()) == \
            list(reference.counts_by(key, billable_only).items())
    for service, operation in itertools.product(services, operations):
        assert meter.bytes_moved(service, operation) == \
            reference.bytes_moved(service, operation)
    assert meter.bytes_moved(operation="put") == \
        reference.bytes_moved(operation="put")
    assert len(meter) == len(reference)


@pytest.mark.parametrize("seed", range(8))
def test_meter_matches_list_of_records_reference(seed):
    draw = np.random.default_rng(seed)
    meter, reference = TransactionMeter(), ReferenceMeter()
    assert_same_reads(meter, reference)
    for step in range(1, 301):
        key = (SERVICES[draw.integers(len(SERVICES))],
               ACCOUNTS[draw.integers(len(ACCOUNTS))],
               OPERATIONS[draw.integers(len(OPERATIONS))])
        # Mostly single transactions, some large batches (idle polling).
        count = int(draw.integers(1, 4) if draw.random() < 0.7
                    else draw.integers(1, 100_000))
        size = int(draw.integers(0, 5000)) if draw.random() < 0.8 else 0
        billable = bool(draw.random() < 0.8)
        if draw.random() < 0.5:
            meter.record(*key, size=size, billable=billable, count=count)
            reference.record(*key, size=size, billable=billable,
                             count=count)
        else:
            meter.record(*key, size, billable, count)
            reference.record(*key, size, billable, count)
        if step % 100 == 0:
            assert_same_reads(meter, reference)


def test_meter_rejects_unknown_grouping_key():
    meter = TransactionMeter()
    meter.record("queue", "a", "poll")
    with pytest.raises(ValueError, match="key must be one of"):
        meter.counts_by("size")
