"""Transaction metering for storage services.

Azure bills Durable Functions users for every queue and table transaction
the Durable Task Framework performs — including the constant queue polling
that continues while the application is idle.  The pricing layer reads
only per-key totals, so those are all the meter keeps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

_FIELDS = ("service", "account", "operation", "billable")


class TransactionMeter:
    """``[count, bytes]`` per (service, account, operation, billable),
    shared by all the storage services of one platform deployment.
    Bytes is the sum of size × count; integer sums stay exact in any
    order."""

    def __init__(self):
        self._totals: Dict[Tuple[str, str, str, bool], List[int]] = {}
        self._settlers: List[Callable[[], None]] = []

    def register_settler(self, settle: Callable[[], None]) -> None:
        """Register a callback that records lazily-accrued transactions.

        Services that batch periodic traffic (idle-poll elision) settle
        their outstanding bill here; every read method calls
        :meth:`settle` first so reports never observe a stale total.
        """
        self._settlers.append(settle)

    def settle(self) -> None:
        """Flush all registered accrual providers into the totals."""
        for settle in self._settlers:
            settle()

    def record(self, service: str, account: str, operation: str,
               size: int = 0, billable: bool = True,
               count: int = 1) -> None:
        """Add ``count`` identical transactions of ``size`` bytes each.

        ``count`` lets high-frequency periodic traffic (idle queue
        polling, lease heartbeats) be metered in one call.
        """
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        key = (service, account, operation, billable)
        totals = self._totals.get(key)
        if totals is None:
            self._totals[key] = [count, size * count]
        else:
            totals[0] += count
            totals[1] += size * count

    def _matching(self, *wanted: Any) -> List[List[int]]:
        """The ``[count, bytes]`` of every key equal to ``wanted``
        (service, account, operation, billable) wherever it is not None."""
        self.settle()
        return [totals for key, totals in self._totals.items()
                if all(want is None or want == have
                       for want, have in zip(wanted, key))]

    def count(self, service: Optional[str] = None,
              operation: Optional[str] = None,
              account: Optional[str] = None,
              billable_only: bool = True) -> int:
        """Number of recorded transactions matching the filters."""
        return sum(count for count, _ in self._matching(
            service, account, operation, billable_only or None))

    def counts_by(self, key: str = "operation",
                  billable_only: bool = True) -> Dict[str, int]:
        """Histogram of transactions grouped by one key field."""
        if key not in _FIELDS:
            raise ValueError(f"key must be one of {_FIELDS}, got {key!r}")
        index = _FIELDS.index(key)
        self.settle()
        histogram: Dict[str, int] = {}
        for fields, (count, _) in self._totals.items():
            if fields[3] or not billable_only:
                value = fields[index]
                histogram[value] = histogram.get(value, 0) + count
        return histogram

    def bytes_moved(self, service: Optional[str] = None,
                    operation: Optional[str] = None) -> int:
        """Total payload bytes across matching transactions."""
        return sum(size for _, size in self._matching(
            service, None, operation))

    def reset(self) -> None:
        """Drop all totals (used between experiment iterations)."""
        self._totals.clear()

    def __len__(self) -> int:
        """Total transaction count, billable or not."""
        return sum(count for count, _ in self._matching())

    def __repr__(self) -> str:
        return f"TransactionMeter(keys={len(self._totals)})"
