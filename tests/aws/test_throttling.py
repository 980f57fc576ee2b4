"""Token-bucket admission control and Step Functions throttle retries."""

import pytest

from repro.platforms.base import FunctionSpec, ThrottlingError
from repro.platforms.calibration import AWSCalibration


def echo(ctx, event):
    yield from ctx.busy(1.0)
    return event


def register(lambdas, name="echo", handler=echo, **kwargs):
    lambdas.register(FunctionSpec(name=name, handler=handler, **kwargs))


# -- token bucket ----------------------------------------------------------------


def test_token_bucket_throttles_past_burst(env, lambdas, run):
    lambdas.calibration.burst_concurrency = 2
    lambdas.calibration.refill_per_s = 1.0
    lambdas._tokens = 2.0
    register(lambdas)

    def rapid(env):
        processes = [env.process(_one(env, lambdas)) for _ in range(3)]
        yield env.all_of(processes)

    with pytest.raises(ThrottlingError, match="token bucket empty"):
        env.run(until=env.process(rapid(env)))
    assert lambdas.throttles == 1


def _one(env, lambdas):
    result = yield from lambdas.invoke("echo", 1)
    return result


def test_throttling_error_carries_retry_after(env, lambdas):
    lambdas.calibration.burst_concurrency = 1
    lambdas.calibration.refill_per_s = 2.0
    lambdas._tokens = 1.0
    register(lambdas)

    def rapid(env):
        processes = [env.process(_one(env, lambdas)) for _ in range(2)]
        yield env.all_of(processes)

    with pytest.raises(ThrottlingError) as info:
        env.run(until=env.process(rapid(env)))
    assert info.value.retry_after_s > 0


def test_bucket_refills_over_time(env, lambdas, run):
    lambdas.calibration.burst_concurrency = 1
    lambdas.calibration.refill_per_s = 0.1
    lambdas._tokens = 1.0
    register(lambdas)
    run(lambdas.invoke("echo", 1))
    assert lambdas.available_tokens() < 1.0

    def later(env):
        yield env.timeout(10.0)
        result = yield from lambdas.invoke("echo", 2)
        return result

    result = env.run(until=env.process(later(env)))
    assert result.value == 2
    assert lambdas.throttles == 0


def test_bucket_never_exceeds_burst(env, lambdas, run):
    register(lambdas)

    def much_later(env):
        yield env.timeout(3600.0)
        return lambdas.available_tokens()

    tokens = env.run(until=env.process(much_later(env)))
    assert tokens == float(lambdas.calibration.burst_concurrency)


def test_concurrency_limit_raises_typed_throttle(env, lambdas):
    """The old RuntimeError message survives on the typed 429."""
    lambdas.calibration.concurrency_limit = 2

    def slow(ctx, event):
        yield from ctx.busy(50.0)
        return event

    register(lambdas, handler=slow, timeout_s=600.0)

    def fan_out(env):
        processes = [env.process(_one(env, lambdas)) for _ in range(3)]
        yield env.all_of(processes)

    with pytest.raises(ThrottlingError, match="concurrent execution limit"):
        env.run(until=env.process(fan_out(env)))
    assert isinstance(ThrottlingError("x"), RuntimeError)
    assert lambdas.throttles == 1


def test_throttled_requests_are_not_billed(env, lambdas, billing):
    lambdas.calibration.burst_concurrency = 1
    lambdas.calibration.refill_per_s = 0.5
    lambdas._tokens = 1.0
    register(lambdas)

    def rapid(env):
        processes = [env.process(_one(env, lambdas)) for _ in range(2)]
        yield env.all_of(processes)

    with pytest.raises(ThrottlingError):
        env.run(until=env.process(rapid(env)))
    # The throttled request is never billed; the admitted one bills
    # when its execution starts — drain it to completion first.
    env.run()
    assert billing.total_requests() == 1


# -- Step Functions retry --------------------------------------------------------


def _machine(stepfunctions, resource="echo"):
    stepfunctions.create_state_machine("m", {
        "StartAt": "T",
        "States": {"T": {"Type": "Task", "Resource": resource,
                         "End": True}},
    })


def test_step_retries_absorb_throttles(env, lambdas, stepfunctions):
    lambdas.calibration.burst_concurrency = 2
    lambdas.calibration.refill_per_s = 1.0
    lambdas._tokens = 2.0
    register(lambdas)
    _machine(stepfunctions)

    def start(env):
        processes = [
            env.process(_execution(env, stepfunctions, index))
            for index in range(4)]
        yield env.all_of(processes)
        return [process.value for process in processes]

    records = env.run(until=env.process(start(env)))
    assert all(record.status == "SUCCEEDED" for record in records)
    assert stepfunctions.throttle_retries > 0
    assert lambdas.throttles > 0


def _execution(env, stepfunctions, payload):
    record = yield from stepfunctions.start_execution("m", payload)
    return record


def test_step_exhausts_retries_into_failed_record(env, lambdas,
                                                  stepfunctions):
    lambdas.calibration.burst_concurrency = 1
    lambdas.calibration.refill_per_s = 0.001   # never refills in time
    lambdas.calibration.throttle_retry_max_attempts = 1
    lambdas._tokens = 1.0
    register(lambdas)
    _machine(stepfunctions)

    def start(env):
        processes = [
            env.process(_execution(env, stepfunctions, index))
            for index in range(2)]
        yield env.all_of(processes)
        return [process.value for process in processes]

    records = env.run(until=env.process(start(env)))
    statuses = sorted(record.status for record in records)
    assert statuses == ["FAILED", "SUCCEEDED"]
    failed = next(r for r in records if r.status == "FAILED")
    assert "Lambda.TooManyRequestsException" in str(failed.error)


def test_throttle_backoff_is_deterministic():
    """Backoff jitter draws from a named stream — same seed, same delays."""
    from repro.core import Testbed

    def finish_times():
        calibration = AWSCalibration(burst_concurrency=2, refill_per_s=1.0)
        testbed = Testbed(seed=5, calibrations={"aws": calibration})
        register(testbed.lambdas)
        _machine(testbed.stepfunctions)
        env = testbed.env

        def start(env):
            processes = [
                env.process(_execution(env, testbed.stepfunctions, index))
                for index in range(5)]
            yield env.all_of(processes)
            return [process.value for process in processes]

        records = env.run(until=env.process(start(env)))
        assert testbed.stepfunctions.throttle_retries > 0
        return [record.finished_at for record in records]

    assert finish_times() == finish_times()


# -- calibration validation ------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("concurrency_limit", 0),
    ("burst_concurrency", 0),
    ("burst_concurrency", -5),
    ("refill_per_s", 0.0),
    ("refill_per_s", -1.0),
    ("throttle_retry_max_attempts", 0),
    ("throttle_retry_interval_s", 0.0),
])
def test_calibration_rejects_nonpositive(field, value):
    with pytest.raises(ValueError, match="must be"):
        AWSCalibration(**{field: value})


def test_calibration_rejects_cap_below_interval():
    with pytest.raises(ValueError, match="throttle_retry_cap_s"):
        AWSCalibration(throttle_retry_interval_s=4.0,
                       throttle_retry_cap_s=1.0)
