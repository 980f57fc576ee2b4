"""Shared fixtures for AWS platform tests."""

import pytest

from repro.aws import LambdaService, StepFunctionsService
from repro.platforms.billing import BillingMeter
from repro.platforms.calibration import AWSCalibration
from repro.sim import Environment, RandomStreams
from repro.storage.meter import TransactionMeter
from repro.telemetry import Telemetry


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def telemetry(env):
    return Telemetry(clock=lambda: env.now)


@pytest.fixture
def billing(env):
    return BillingMeter(clock=lambda: env.now)


@pytest.fixture
def meter(env):
    return TransactionMeter()


@pytest.fixture
def streams():
    return RandomStreams(seed=1234)


@pytest.fixture
def calibration():
    calibration = AWSCalibration()
    # Unit tests assert exact durations: pin the CPU share to 1.0.
    calibration.full_cpu_memory_mb = 1536.0
    return calibration


@pytest.fixture
def lambdas(env, telemetry, billing, streams, calibration):
    return LambdaService(env, telemetry, billing, streams, calibration)


@pytest.fixture
def stepfunctions(env, lambdas, telemetry, meter):
    return StepFunctionsService(env, lambdas, telemetry, meter)


@pytest.fixture
def run(env):
    """Drive a generator to completion inside the simulation."""
    def runner(generator):
        def process(env):
            result = yield from generator
            return result
        return env.run(until=env.process(process(env)))
    return runner
