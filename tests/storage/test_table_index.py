"""Differential test: the partition-indexed ``TableStore`` against a
brute-force reference that keeps every row in one flat dict and scans it.

A seeded random sequence of inserts, conditional updates (matching and
stale etags), deletes, partition deletes and partition reads runs over
interleaved partitions on both.  After every operation the return value
(or raised error), the metered transaction and every inspection helper
must agree.
"""

import numpy as np
import pytest

from repro.sim import Environment
from repro.storage import EntityNotFound, TableStore, TransactionMeter
from repro.storage.table import PreconditionFailed

PARTITIONS = ("history-a", "history-b", "entity@counter", "empty")
#: zero-padded and unpadded keys, so string order differs from numeric order
ROW_KEYS = ("000001", "000002", "000010", "commit-000001", "commit-1",
            "commit-10", "commit-2", "z", "")


class ReferenceTable:
    """Every row in one ``{(partition, row): (value, size, etag)}`` dict."""

    def __init__(self):
        self.rows = {}

    def insert(self, partition_key, row_key, value, size):
        key = (partition_key, row_key)
        etag = self.rows[key][2] + 1 if key in self.rows else 0
        self.rows[key] = (value, size, etag)
        return etag

    def update(self, partition_key, row_key, value, size, if_match):
        key = (partition_key, row_key)
        if key not in self.rows:
            raise EntityNotFound(key)
        etag = self.rows[key][2]
        if etag != if_match:
            raise PreconditionFailed(key, if_match, etag)
        self.rows[key] = (value, size, etag + 1)
        return etag + 1

    def read(self, partition_key, row_key):
        key = (partition_key, row_key)
        if key not in self.rows:
            raise EntityNotFound(key)
        return self.rows[key][0]

    def read_partition(self, partition_key):
        rows = sorted((row_key, value, size)
                      for (pk, row_key), (value, size, _) in self.rows.items()
                      if pk == partition_key)
        return [value for _, value, _ in rows], sum(size for *_, size in rows)

    def delete(self, partition_key, row_key):
        self.rows.pop((partition_key, row_key), None)

    def delete_partition(self, partition_key):
        keys = [key for key in self.rows if key[0] == partition_key]
        for key in keys:
            del self.rows[key]
        return len(keys)

    def etag(self, partition_key, row_key):
        row = self.rows.get((partition_key, row_key))
        return None if row is None else row[2]


def outcome(env, generator):
    """Drive one table operation; returns ``("ok", value)`` or the error."""
    def process(env):
        try:
            value = yield from generator
        except (EntityNotFound, PreconditionFailed) as error:
            return type(error).__name__, error.args
        return "ok", value
    return env.run(until=env.process(process(env)))


def reference_outcome(call, *args):
    try:
        return "ok", call(*args)
    except (EntityNotFound, PreconditionFailed) as error:
        return type(error).__name__, error.args


@pytest.mark.parametrize("seed", range(6))
def test_table_matches_flat_reference(seed):
    draw = np.random.default_rng(seed)
    env = Environment()
    meter = TransactionMeter()
    table = TableStore(env, meter, np.random.default_rng(seed))
    reference = ReferenceTable()
    operations = ("insert", "insert", "insert", "update", "update", "read",
                  "read_partition", "read_partition", "delete",
                  "delete_partition")
    seen = {name: 0 for name in operations}
    for step in range(400):
        operation = operations[draw.integers(len(operations))]
        seen[operation] += 1
        partition = PARTITIONS[draw.integers(len(PARTITIONS))]
        row = ROW_KEYS[draw.integers(len(ROW_KEYS))]
        value = {"step": step}
        size = int(draw.integers(0, 5000))
        transactions = len(meter)
        if operation == "insert":
            got = outcome(env, table.insert(partition, row, value, size=size))
            want = reference_outcome(reference.insert, partition, row, value,
                                     size)
        elif operation == "update":
            etag = reference.etag(partition, row)
            # Half the updates carry the current etag, half a stale one.
            if_match = (etag if etag is not None and draw.random() < 0.5
                        else int(draw.integers(-1, 3)))
            got = outcome(env, table.update(partition, row, value, if_match,
                                            size=size))
            want = reference_outcome(reference.update, partition, row, value,
                                     size, if_match)
        elif operation == "read":
            got = outcome(env, table.read(partition, row))
            want = reference_outcome(reference.read, partition, row)
        elif operation == "read_partition":
            queries = meter.counts_by("operation").get("query", 0)
            query_bytes = meter.bytes_moved(operation="query")
            got = outcome(env, table.read_partition(partition))
            values, query_size = reference.read_partition(partition)
            want = "ok", values
            assert meter.counts_by("operation")["query"] == queries + 1
            assert meter.bytes_moved(operation="query") == (query_bytes
                                                            + query_size)
        elif operation == "delete":
            got = outcome(env, table.delete(partition, row))
            want = reference_outcome(reference.delete, partition, row)
        else:
            got = outcome(env, table.delete_partition(partition))
            want = reference_outcome(reference.delete_partition, partition)
        assert got == want, (step, operation, partition, row)
        assert len(meter) == transactions + 1

        assert len(table) == len(reference.rows)
        for pk in PARTITIONS:
            assert table.partition_size(pk) == sum(
                1 for key in reference.rows if key[0] == pk)
            for rk in ROW_KEYS:
                assert table.contains(pk, rk) == ((pk, rk) in reference.rows)
    assert all(seen.values()), seen


def test_read_partition_orders_row_keys_as_strings():
    env = Environment()
    meter = TransactionMeter()
    table = TableStore(env, meter, np.random.default_rng(0))
    for row_key in ("commit-10", "commit-000001", "commit-2", "commit-1"):
        outcome(env, table.insert("history", row_key, row_key, size=10))
    outcome(env, table.insert("other", "commit-0", "noise", size=99))
    assert outcome(env, table.read_partition("history")) == (
        "ok", ["commit-000001", "commit-1", "commit-10", "commit-2"])
    assert meter.bytes_moved(operation="query") == 40
    assert outcome(env, table.read_partition("absent")) == ("ok", [])
    assert meter.counts_by("operation")["query"] == 2
    assert meter.bytes_moved(operation="query") == 40


def test_deleting_last_row_leaves_an_empty_partition():
    env = Environment()
    meter = TransactionMeter()
    table = TableStore(env, meter, np.random.default_rng(0))
    outcome(env, table.insert("p", "r", 1))
    outcome(env, table.delete("p", "r"))
    outcome(env, table.delete("p", "r"))  # idempotent
    assert len(table) == 0
    assert table.partition_size("p") == 0
    assert outcome(env, table.delete_partition("p")) == ("ok", 0)
    assert outcome(env, table.insert("p", "r", 2)) == ("ok", 0)
    assert len(table) == 1
