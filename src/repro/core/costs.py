"""Unified cost reporting across all platforms (§IV-A Price Calculation).

"We measured two components of the price ...: computation cost, and
transaction cost."  This module reads a deployment's billing and
transaction meters and renders both components in dollars, plus the GB-s
and transaction counts behind them (Fig 11, Fig 15).  The per-platform
breakdown itself comes from the deployment's registered
:class:`~repro.platforms.backend.PlatformBackend`, so new platforms
report costs without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.deployments.base import Deployment
from repro.platforms.backend import get_backend


@dataclass(frozen=True)
class CostReport:
    """Cost of everything a deployment's meters have recorded."""

    deployment: str
    platform: str
    gb_s: float                 # raw compute volume (Fig 11a/11b)
    compute_cost: float         # GB-s × price + request/execution charges
    transaction_cost: float     # transitions (AWS), storage tx (Azure),
                                # or workflow steps (GCP)
    transaction_count: int
    replay_gb_s: float = 0.0    # orchestrator replay share (Azure only)

    @property
    def total(self) -> float:
        return self.compute_cost + self.transaction_cost

    @property
    def transaction_share(self) -> float:
        """Stateful share of the total (Fig 11c/11d, Fig 15)."""
        return self.transaction_cost / self.total if self.total else 0.0


def cost_report(deployment: Deployment,
                per_runs: Optional[int] = None) -> CostReport:
    """Read the deployment's platform meters into a :class:`CostReport`.

    With ``per_runs`` the dollar/GB-s quantities are divided by that run
    count, giving per-execution cost (the paper's per-run charts).
    """
    backend = get_backend(deployment.platform)
    breakdown = backend.cost_breakdown(deployment.testbed)
    report = CostReport(deployment=deployment.name,
                        platform=deployment.platform, **breakdown)
    if per_runs and per_runs > 0:
        report = CostReport(
            deployment=report.deployment, platform=report.platform,
            gb_s=report.gb_s / per_runs,
            compute_cost=report.compute_cost / per_runs,
            transaction_cost=report.transaction_cost / per_runs,
            transaction_count=report.transaction_count // per_runs,
            replay_gb_s=report.replay_gb_s / per_runs)
    return report


def monthly_projection(report: CostReport, runs_per_month: int,
                       idle_transactions_per_month: int = 0,
                       transaction_price: float = 4.0e-8) -> CostReport:
    """Project a per-run report to a monthly bill (Fig 15).

    Azure's constant queue polling bills ``idle_transactions_per_month``
    even when no workflow runs; AWS's idle term is zero.
    """
    if runs_per_month < 0:
        raise ValueError(
            f"runs_per_month must be non-negative, got {runs_per_month}")
    idle_cost = idle_transactions_per_month * transaction_price
    return CostReport(
        deployment=report.deployment, platform=report.platform,
        gb_s=report.gb_s * runs_per_month,
        compute_cost=report.compute_cost * runs_per_month,
        transaction_cost=(report.transaction_cost * runs_per_month
                          + idle_cost),
        transaction_count=(report.transaction_count * runs_per_month
                           + idle_transactions_per_month),
        replay_gb_s=report.replay_gb_s * runs_per_month)
