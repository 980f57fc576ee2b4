"""Tests for the premium hosting plan and Netherite mode extensions."""

import pytest

from repro.azure import (
    AzurePriceModel,
    DurableFunctionsRuntime,
    FunctionAppService,
    OrchestratorSpec,
)
from repro.platforms.base import FunctionSpec


def echo(ctx, event):
    yield from ctx.busy(1.0)
    return event


# -- premium plan -----------------------------------------------------------------

def test_unknown_plan_rejected(env, telemetry, billing, streams,
                               calibration):
    with pytest.raises(ValueError, match="hosting plan"):
        FunctionAppService(env, telemetry, billing, streams, calibration,
                           plan="dedicated-v9")


def test_premium_plan_prewarms_instances(env, telemetry, billing, streams,
                                         calibration):
    app = FunctionAppService(env, telemetry, billing, streams, calibration,
                             plan=FunctionAppService.PREMIUM)
    assert app.live_instance_count == calibration.premium_min_instances


def test_premium_plan_has_no_cold_start(env, telemetry, billing, streams,
                                        calibration, run):
    app = FunctionAppService(env, telemetry, billing, streams, calibration,
                             plan=FunctionAppService.PREMIUM)
    app.register(FunctionSpec(name="echo", handler=echo, memory_mb=1536,
                              timeout_s=60.0))
    result = run(app.invoke("echo", {"x": 1}))
    assert not result.cold_start
    assert result.queue_wait < 0.5


def test_premium_pool_never_shrinks_below_floor(env, telemetry, billing,
                                                streams, calibration, run):
    app = FunctionAppService(env, telemetry, billing, streams, calibration,
                             plan=FunctionAppService.PREMIUM)
    app.register(FunctionSpec(name="echo", handler=echo, memory_mb=1536,
                              timeout_s=60.0))
    run(app.invoke("echo", {}))

    def idle(env):
        yield env.timeout(calibration.instance_idle_timeout_s * 3)

    env.run(until=env.process(idle(env)))
    assert app.live_instance_count >= calibration.premium_min_instances


def test_premium_monthly_cost(calibration):
    price = AzurePriceModel(calibration).premium_monthly_cost(hours=730.0)
    expected = (calibration.premium_min_instances
                * calibration.premium_instance_hourly_price * 730.0)
    assert price == pytest.approx(expected)
    assert price > 100.0   # always-on capacity is not cheap


# -- Netherite mode ----------------------------------------------------------------

def _durable_runtime(env, telemetry, billing, meter, streams, calibration):
    runtime = DurableFunctionsRuntime(
        env, telemetry, billing, meter, streams, calibration=calibration)
    runtime.register_activity(FunctionSpec(
        name="double", handler=lambda ctx, e: _double(ctx, e),
        memory_mb=1536, timeout_s=60.0))

    def orchestrator(context):
        value = context.input
        for _ in range(4):
            value = yield context.call_activity("double", value)
        return value

    runtime.register_orchestrator(OrchestratorSpec("chain", orchestrator))
    return runtime


def _double(ctx, event):
    yield from ctx.busy(0.5)
    return event * 2


def test_netherite_mode_preserves_results(env, telemetry, billing, meter,
                                          streams, calibration, run):
    calibration.netherite_mode = True
    runtime = _durable_runtime(env, telemetry, billing, meter, streams,
                               calibration)
    assert run(runtime.client.run("chain", 1)) == 16


def test_netherite_mode_cuts_storage_transactions(env, telemetry, billing,
                                                  meter, streams,
                                                  calibration, run):
    from repro.platforms.billing import BillingMeter
    from repro.sim import Environment, RandomStreams
    from repro.storage.meter import TransactionMeter
    from repro.telemetry import Telemetry

    def table_tx(netherite):
        local_env = Environment()
        local_meter = TransactionMeter()
        local_calibration = type(calibration)()
        local_calibration.execution_jitter = calibration.execution_jitter
        local_calibration.cpu_slowdown = 1.0
        local_calibration.netherite_mode = netherite
        runtime = _durable_runtime(
            local_env, Telemetry(clock=lambda: local_env.now),
            BillingMeter(), local_meter, RandomStreams(5),
            local_calibration)

        def scenario(env):
            output = yield from runtime.client.run("chain", 1)
            return output

        local_env.run(until=local_env.process(scenario(local_env)))
        return (local_meter.count(service="table", operation="insert")
                + local_meter.count(service="table", operation="query"))

    classic = table_tx(netherite=False)
    netherite = table_tx(netherite=True)
    # Batched commits replace per-event writes and full-history reads.
    assert netherite < classic * 0.6


def test_netherite_mode_cuts_replay_gbs(env, telemetry, billing, meter,
                                        streams, calibration, run):
    calibration.netherite_mode = True
    runtime = _durable_runtime(env, telemetry, billing, meter, streams,
                               calibration)
    run(runtime.client.run("chain", 1))
    replay_gb_s = sum(
        charge.gb_s for charge in billing.compute
        if charge.function_name.startswith("orchestrator::"))
    # Episodes still execute (base cost) but there is no per-event replay:
    # 5 episodes × ~0.2 s at 256 MB ≈ 0.25 GB-s, far below classic mode.
    assert replay_gb_s < 1.0
