"""Tests for the experiment runner, campaigns, metrics and cost reports."""

import pytest

from repro.core import (
    ColdStartCampaign,
    ExperimentRunner,
    Testbed,
    build_ml_training_deployments,
    cdf_points,
    cost_report,
    percentile,
    summarize,
)
from repro.core.costs import CostReport, monthly_projection
from repro.core.metrics import breakdown_from_spans, fraction_above


# -- metrics ---------------------------------------------------------------------

def test_percentile_basics():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 99) == pytest.approx(99.01)
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 150)


def test_summarize_stats():
    stats = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats.count == 5
    assert stats.median == 3.0
    assert stats.minimum == 1.0
    assert stats.maximum == 100.0
    assert stats.p99 > stats.p95 >= stats.median
    with pytest.raises(ValueError):
        summarize([])


def test_cdf_points_monotonic():
    points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0])
    latencies = [latency for latency, _ in points]
    fractions = [fraction for _, fraction in points]
    assert latencies == sorted(latencies)
    assert fractions[-1] == pytest.approx(1.0)


def test_cdf_points_downsamples():
    points = cdf_points(list(range(1000)), n_points=50)
    assert len(points) == 50


def test_fraction_above():
    assert fraction_above([10, 20, 30, 40], 25) == 0.5
    assert fraction_above([10.0], 5.0) == 1.0


# -- campaigns --------------------------------------------------------------------

@pytest.fixture(scope="module")
def campaign():
    testbed = Testbed(seed=3)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Step"]
    runner = ExperimentRunner(think_time_s=20.0, settle_time_s=2.0)
    return runner.run_campaign(deployment, iterations=10, warmup=1)


def test_campaign_collects_requested_iterations(campaign):
    assert len(campaign.runs) == 10
    assert len(campaign.breakdowns) == 10


def test_campaign_latencies_positive_and_stable(campaign):
    stats = campaign.stats()
    assert stats.minimum > 0
    # Warm runs of the same workflow: p99 within 3x of median.
    assert stats.p99 < stats.median * 3


def test_campaign_breakdowns_cover_latency(campaign):
    breakdown = campaign.median_breakdown()
    assert breakdown.execution_time > 0
    assert breakdown.total <= campaign.stats().p99 * 1.5


def test_p99_breakdown_picks_tail_run(campaign):
    breakdown = campaign.p99_breakdown()
    assert breakdown.total > 0


def test_runner_validates_iterations():
    testbed = Testbed(seed=3)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Lambda"]
    with pytest.raises(ValueError):
        ExperimentRunner().run_campaign(deployment, iterations=0)


def test_cold_start_campaign_spacing():
    testbed = Testbed(seed=5)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Step"]
    campaign = ColdStartCampaign(interval_s=3600.0, days=0.5)
    assert campaign.request_count == 12
    result = campaign.run(deployment)
    assert len(result.runs) == 12
    # Every hourly request should be a cold start (keep-alive is 10 min).
    assert len(result.cold_start_delays) == 12
    delays = result.cold_start_delays
    # AWS-Step cold start: step overhead + Lambda cold ≈ 2.5-5 s (Fig 10).
    assert all(2.0 <= delay <= 6.0 for delay in delays)


def test_cold_start_campaign_validates_arguments():
    with pytest.raises(ValueError):
        ColdStartCampaign(interval_s=0.0)


# -- costs -------------------------------------------------------------------------

def test_cost_report_aws(campaign):
    pass  # placeholder ordering; real assertions below use fresh testbeds


def test_cost_report_components():
    testbed = Testbed(seed=9)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Step"]
    deployment.deploy()
    testbed.run(deployment.invoke())
    report = cost_report(deployment)
    assert report.platform == "aws"
    assert report.gb_s > 0
    assert report.compute_cost > 0
    assert report.transaction_count == 4
    assert report.transaction_cost == pytest.approx(4 * 2.5e-5)
    assert report.total == report.compute_cost + report.transaction_cost


def test_cost_report_per_run_scaling():
    testbed = Testbed(seed=9)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Lambda"]
    deployment.deploy()
    testbed.run(deployment.invoke())
    testbed.run(deployment.invoke())
    total = cost_report(deployment)
    per_run = cost_report(deployment, per_runs=2)
    assert per_run.gb_s == pytest.approx(total.gb_s / 2)


def test_azure_cost_report_includes_replay_gbs():
    testbed = Testbed(seed=9)
    deployment = build_ml_training_deployments(testbed, "small")["Az-Dorch"]
    deployment.deploy()
    testbed.run(deployment.invoke())
    report = cost_report(deployment)
    assert report.platform == "azure"
    assert report.replay_gb_s > 0
    assert report.transaction_count > 10  # queue + table traffic


def test_monthly_projection_adds_idle_polling():
    testbed = Testbed(seed=9)
    deployment = build_ml_training_deployments(testbed, "small")["Az-Func"]
    deployment.deploy()
    testbed.run(deployment.invoke())
    report = cost_report(deployment)
    projected = monthly_projection(report, runs_per_month=100,
                                   idle_transactions_per_month=1_000_000)
    assert projected.compute_cost == pytest.approx(report.compute_cost * 100)
    assert projected.transaction_cost > report.transaction_cost * 100


def test_monthly_projection_rejects_a_negative_run_count():
    report = CostReport(deployment="AWS-Step", platform="aws", gb_s=1.0,
                        compute_cost=1.0, transaction_cost=1.0,
                        transaction_count=1)
    with pytest.raises(ValueError, match="runs_per_month"):
        monthly_projection(report, runs_per_month=-3)
