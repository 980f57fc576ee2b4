"""AWS price model: Lambda compute/requests + Step Functions transitions.

The paper's framing (§II-C): "the user is charged based on the number of
state transitions that took place during the execution", with no charge
for idle periods — the property the authors call closest to the
pay-per-use serverless model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platforms.billing import BillingMeter
from repro.platforms.calibration import AWSCalibration
from repro.storage.meter import TransactionMeter


@dataclass
class AWSCostBreakdown:
    """Dollar cost split into the paper's two components."""

    compute: float          # Lambda GB-s ("computation cost")
    requests: float         # Lambda per-request charge
    transitions: float      # Step Functions ("transaction cost")
    gb_s: float             # raw GB-s, for Fig 11a/11b
    transition_count: int
    express: float = 0.0    # Express workflow charges (requests + duration)

    @property
    def stateless(self) -> float:
        """The paper's 'computation cost' component."""
        return self.compute + self.requests

    @property
    def stateful(self) -> float:
        """The paper's 'transaction cost' component."""
        return self.transitions + self.express

    @property
    def total(self) -> float:
        return self.stateless + self.stateful

    @property
    def stateful_share(self) -> float:
        """Transaction cost as a fraction of the total (Fig 11c/11d)."""
        return self.stateful / self.total if self.total else 0.0


class AWSPriceModel:
    """Prices a deployment's billing and transaction meters."""

    def __init__(self, calibration: AWSCalibration):
        self.calibration = calibration

    def breakdown(self, billing: BillingMeter,
                  meter: TransactionMeter) -> AWSCostBreakdown:
        """Cost of everything recorded so far."""
        gb_s = billing.total_gb_s()
        transitions = meter.count(service="stepfunctions",
                                  operation="transition")
        express_requests = meter.count(service="stepfunctions-express",
                                       operation="request")
        express_micro_gb_s = meter.bytes_moved(
            service="stepfunctions-express", operation="duration")
        express = (express_requests * self.calibration.express_request_price
                   + express_micro_gb_s / 1e6
                   * self.calibration.express_gb_s_price)
        return AWSCostBreakdown(
            compute=gb_s * self.calibration.gb_s_price,
            requests=billing.total_requests() * self.calibration.request_price,
            transitions=transitions * self.calibration.transition_price,
            gb_s=gb_s,
            transition_count=transitions,
            express=express)

    def monthly_cost(self, breakdown_per_run: AWSCostBreakdown,
                     runs_per_month: int) -> float:
        """Project a single run's cost to a monthly bill.

        AWS charges nothing while idle, so the projection is linear in the
        number of runs (§V-A cost discussion).
        """
        return breakdown_per_run.total * runs_per_month
