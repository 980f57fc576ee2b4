"""Unit tests for both platforms' price models."""

import pytest

from repro.aws import AWSPriceModel
from repro.azure import AzurePriceModel
from repro.platforms.billing import BillingMeter
from repro.platforms.calibration import AWSCalibration, AzureCalibration
from repro.storage.meter import TransactionMeter


@pytest.fixture
def aws_model():
    return AWSPriceModel(AWSCalibration())


@pytest.fixture
def azure_model():
    return AzurePriceModel(AzureCalibration())


def test_aws_breakdown_components(aws_model):
    billing = BillingMeter()
    billing.charge_compute("f", 1.0, 1.0, memory_mb=1024)  # 1 GB-s
    billing.charge_request("f")
    meter = TransactionMeter()
    for _ in range(4):
        meter.record("stepfunctions", "m", "transition")
    breakdown = aws_model.breakdown(billing, meter)
    assert breakdown.gb_s == pytest.approx(1.0)
    assert breakdown.compute == pytest.approx(1.66667e-5)
    assert breakdown.requests == pytest.approx(2e-7)
    assert breakdown.transitions == pytest.approx(4 * 2.5e-5)
    assert breakdown.stateless == breakdown.compute + breakdown.requests
    assert breakdown.stateful == breakdown.transitions
    assert breakdown.total == breakdown.stateless + breakdown.stateful
    assert 0 < breakdown.stateful_share < 1


def test_aws_empty_meters_cost_nothing(aws_model):
    breakdown = aws_model.breakdown(BillingMeter(), TransactionMeter())
    assert breakdown.total == 0.0
    assert breakdown.stateful_share == 0.0


def test_aws_monthly_is_linear(aws_model):
    billing = BillingMeter()
    billing.charge_compute("f", 1.0, 1.0, memory_mb=1024)
    breakdown = aws_model.breakdown(billing, TransactionMeter())
    assert aws_model.monthly_cost(breakdown, 100) == pytest.approx(
        breakdown.total * 100)


def test_aws_express_charges_counted(aws_model):
    meter = TransactionMeter()
    meter.record("stepfunctions-express", "m", "request")
    meter.record("stepfunctions-express", "m", "duration",
                 size=int(2.0 * 1e6))   # 2 GB-s in micro-GB-s
    breakdown = aws_model.breakdown(BillingMeter(), meter)
    expected = 1e-6 + 2.0 * 1.667e-5
    assert breakdown.express == pytest.approx(expected)
    assert breakdown.stateful == pytest.approx(expected)


def test_aws_express_duration_sums_every_machine(aws_model):
    meter = TransactionMeter()
    meter.record("stepfunctions-express", "orders", "request", count=2)
    meter.record("stepfunctions-express", "orders", "duration",
                 size=int(0.5 * 1e6), count=2)   # 2 runs of 0.5 GB-s
    meter.record("stepfunctions-express", "invoices", "request")
    meter.record("stepfunctions-express", "invoices", "duration",
                 size=int(1.5 * 1e6))
    # Other services' sizes and the requests' own sizes are not duration.
    meter.record("stepfunctions", "orders", "transition", size=10 ** 9)
    meter.record("stepfunctions-express", "orders", "request", size=10 ** 9)
    breakdown = aws_model.breakdown(BillingMeter(), meter)
    expected = 4 * 1e-6 + 2.5 * 1.667e-5
    assert breakdown.express == pytest.approx(expected)
    assert breakdown.transition_count == 1


def test_azure_breakdown_components(azure_model):
    billing = BillingMeter()
    billing.charge_compute("f", 2.0, 2.0, memory_mb=512)   # 1 GB-s
    billing.charge_request("f")
    meter = TransactionMeter()
    meter.record("queue", "hub", "poll", count=100)
    meter.record("table", "hub", "insert", count=50)
    meter.record("blob", "hub", "lease_renew", count=50)
    breakdown = azure_model.breakdown(billing, meter)
    assert breakdown.gb_s == pytest.approx(1.0)
    assert breakdown.transaction_count == 200
    assert breakdown.transactions == pytest.approx(200 * 4e-8)
    assert breakdown.stateful_share > 0


def test_azure_non_billable_services_excluded(azure_model):
    meter = TransactionMeter()
    meter.record("stepfunctions", "m", "transition")   # not an Azure service
    breakdown = azure_model.breakdown(BillingMeter(), meter)
    assert breakdown.transaction_count == 0


def test_azure_monthly_includes_idle_polling(azure_model):
    billing = BillingMeter()
    billing.charge_compute("f", 1.0, 1.0, memory_mb=1024)
    breakdown = azure_model.breakdown(billing, TransactionMeter())
    with_idle = azure_model.monthly_cost(
        breakdown, runs_per_month=10, idle_transactions_per_month=1_000_000)
    without_idle = azure_model.monthly_cost(breakdown, runs_per_month=10)
    assert with_idle - without_idle == pytest.approx(1_000_000 * 4e-8)


def test_azure_premium_monthly(azure_model):
    cost = azure_model.premium_monthly_cost(hours=100.0)
    calibration = azure_model.calibration
    assert cost == pytest.approx(
        calibration.premium_min_instances
        * calibration.premium_instance_hourly_price * 100.0)
