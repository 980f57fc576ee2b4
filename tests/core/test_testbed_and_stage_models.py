"""Tests for the Testbed facade and the calibrated stage models."""

import numpy as np
import pytest

from repro.core import Testbed
from repro.core.stage_models import (
    ML_DURATIONS,
    ML_LARGE_ROWS,
    ML_SMALL_ROWS,
    ml_work_models,
    video_detect_seconds,
    video_work_models,
)
from repro.platforms.calibration import AWSCalibration, AzureCalibration
from repro.storage.payload import MB


# -- testbed ------------------------------------------------------------------------

def test_testbed_isolated_stacks():
    testbed = Testbed(seed=0)
    assert testbed.aws.meter is not testbed.azure.meter
    assert testbed.aws.billing is not testbed.azure.billing
    assert testbed.aws.blob is not testbed.azure.blob
    assert testbed.stack("aws") is testbed.aws
    assert testbed.stack("azure") is testbed.azure
    assert testbed.stack("gcp") is testbed.gcp
    assert testbed.gcp.meter is not testbed.aws.meter
    with pytest.raises(ValueError):
        testbed.stack("openwhisk")


def test_testbed_accepts_custom_calibrations():
    aws = AWSCalibration()
    aws.keep_alive_s = 123.0
    azure = AzureCalibration()
    azure.scale_interval_s = 99.0
    testbed = Testbed(seed=0, calibrations={"aws": aws, "azure": azure})
    assert testbed.lambdas.calibration.keep_alive_s == 123.0
    assert testbed.app.calibration.scale_interval_s == 99.0


def test_testbed_advance_moves_clock():
    testbed = Testbed(seed=0)
    testbed.advance(100.0)
    assert testbed.now == 100.0
    with pytest.raises(ValueError):
        testbed.advance(-1.0)


def test_testbed_run_drives_generator():
    testbed = Testbed(seed=0)

    def work():
        yield testbed.env.timeout(5.0)
        return "done"

    assert testbed.run(work()) == "done"
    assert testbed.now == 5.0


def test_reset_meters_clears_platform_state():
    testbed = Testbed(seed=0)
    testbed.aws.meter.record("stepfunctions", "m", "transition")
    testbed.aws.billing.charge_request("f")
    testbed.aws.telemetry.record("x", "execution", 0.0, 1.0)
    testbed.aws.reset_meters()
    assert len(testbed.aws.meter) == 0
    assert testbed.aws.billing.total_requests() == 0
    assert len(testbed.aws.telemetry) == 0


# -- stage models ----------------------------------------------------------------------

def test_ml_durations_scale_monotonically():
    small, large = ML_DURATIONS["small"], ML_DURATIONS["large"]
    assert large.prepare > small.prepare
    assert large.train_rf > small.train_rf
    assert large.inference > small.inference
    assert ML_LARGE_ROWS > ML_SMALL_ROWS


def test_ml_work_models_cover_all_stages():
    for scale in ("small", "large"):
        models = ml_work_models(scale)
        expected = {"prepare", "reduce", "train_rf", "train_knn",
                    "train_lasso", "select", "inference", "apply_prepare",
                    "apply_reduce", "deserialize", "load_model"}
        assert expected <= set(models)


def test_ml_work_models_sample_near_nominal():
    rng = np.random.default_rng(0)
    models = ml_work_models("large")
    draws = [models["train_rf"].duration(rng) for _ in range(200)]
    assert abs(np.mean(draws) - ML_DURATIONS["large"].train_rf) < 2.0


def test_deserialize_scales_with_megabytes():
    rng = np.random.default_rng(0)
    models = ml_work_models("small")
    small = np.mean([models["deserialize"].duration(rng, units=1.0)
                     for _ in range(50)])
    big = np.mean([models["deserialize"].duration(rng, units=10.0)
                   for _ in range(50)])
    assert big > 5 * small


def test_video_models_and_helper():
    rng = np.random.default_rng(0)
    models = video_work_models()
    assert {"split", "detect", "merge"} <= set(models)
    # The analytic helper matches the work model's expectation.
    chunk_bytes = 2 * MB
    expected = video_detect_seconds(chunk_bytes)
    draws = [models["detect"].duration(rng, units=chunk_bytes / MB)
             for _ in range(200)]
    assert abs(np.mean(draws) - expected) < 0.5


def test_rf_dominates_other_training_stages():
    for scale in ("small", "large"):
        durations = ML_DURATIONS[scale]
        assert durations.train_rf > durations.train_knn
        assert durations.train_rf > durations.train_lasso
