"""Tests for JSON persistence of campaigns and cost reports."""

import json

import pytest

from repro.core import Testbed, build_ml_training_deployments, cost_report
from repro.core.costs import CostReport
from repro.core.experiment import CampaignResult, ExperimentRunner
from repro.core.persistence import (
    from_dict,
    load_results,
    save_results,
    to_dict,
)


@pytest.fixture(scope="module")
def campaign_and_report():
    testbed = Testbed(seed=2)
    deployment = build_ml_training_deployments(testbed, "small")["AWS-Step"]
    runner = ExperimentRunner(think_time_s=10.0, settle_time_s=2.0)
    campaign = runner.run_campaign(deployment, iterations=4, warmup=0)
    return campaign, cost_report(deployment, per_runs=4)


def test_campaign_roundtrip(campaign_and_report):
    campaign, _ = campaign_and_report
    restored = from_dict(CampaignResult, to_dict(campaign))
    assert restored.deployment == campaign.deployment
    assert restored.latencies == campaign.latencies
    assert restored.stats() == campaign.stats()
    assert len(restored.breakdowns) == len(campaign.breakdowns)


def test_cost_report_roundtrip(campaign_and_report):
    _, report = campaign_and_report
    restored = from_dict(CostReport, to_dict(report))
    assert restored == report


def test_save_and_load_results_file(tmp_path, campaign_and_report):
    campaign, report = campaign_and_report
    path = save_results(tmp_path / "nested" / "results.json",
                        campaigns=[campaign], cost_reports=[report],
                        metadata={"scale": "small", "seed": 2})
    assert path.exists()
    loaded = load_results(path)
    assert loaded["metadata"]["scale"] == "small"
    assert loaded["campaigns"][0].latencies == campaign.latencies
    assert loaded["cost_reports"][0] == report


def test_saved_file_is_plain_json(tmp_path, campaign_and_report):
    campaign, _ = campaign_and_report
    path = save_results(tmp_path / "r.json", campaigns=[campaign])
    data = json.loads(path.read_text())
    assert data["kind"] == "results"
    assert data["format_version"] == 1


def test_kind_mismatch_rejected(campaign_and_report):
    campaign, report = campaign_and_report
    with pytest.raises(ValueError, match="expected"):
        from_dict(CampaignResult, to_dict(report))
    with pytest.raises(ValueError, match="expected"):
        from_dict(CostReport, to_dict(campaign))


def test_version_mismatch_rejected(campaign_and_report):
    campaign, _ = campaign_and_report
    data = to_dict(campaign)
    data["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        from_dict(CampaignResult, data)


def test_exotic_run_values_stringified(tmp_path):
    from repro.core.deployments.base import RunResult
    from repro.core.experiment import CampaignResult

    class Exotic:
        def __repr__(self):
            return "Exotic()"

    campaign = CampaignResult(deployment="x")
    campaign.runs.append(RunResult(
        deployment="x", started_at=0.0, finished_at=1.0, value=Exotic()))
    path = save_results(tmp_path / "r.json", campaigns=[campaign])
    loaded = load_results(path)
    assert loaded["campaigns"][0].runs[0].value == "Exotic()"
