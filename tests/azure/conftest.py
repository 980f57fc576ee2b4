"""Shared fixtures for Azure platform tests."""

import pytest

from repro.azure import DurableFunctionsRuntime, FunctionAppService
from repro.platforms.billing import BillingMeter
from repro.platforms.calibration import AzureCalibration
from repro.sim import Constant, Environment, RandomStreams
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
    return RandomStreams(seed=777)


@pytest.fixture
def calibration():
    """Deterministic-ish calibration for unit tests."""
    calibration = AzureCalibration()
    calibration.execution_jitter = Constant(1.0)
    calibration.cpu_slowdown = 1.0
    return calibration


@pytest.fixture
def app(env, telemetry, billing, streams, calibration):
    return FunctionAppService(env, telemetry, billing, streams, calibration)


@pytest.fixture
def runtime(env, telemetry, billing, meter, streams, calibration):
    return DurableFunctionsRuntime(
        env, telemetry, billing, meter, streams, calibration=calibration)


@pytest.fixture
def run(env):
    """Drive a generator to completion inside the simulation."""
    def runner(generator):
        def process(env):
            result = yield from generator
            return result
        return env.run(until=env.process(process(env)))
    return runner
