"""Extension experiments — the offerings the paper points at but doesn't run.

The paper's §V-C/§VI suggest remedies for the inefficiencies it measures:
Express-style pricing on AWS, pre-warmed (premium) capacity on Azure, and
the Netherite backend redesign.  These benches quantify each on the same
workloads, answering "what would the paper's charts look like on the
alternative offering?".
"""

import numpy as np
from conftest import fresh_testbed, once

from repro.azure import AzurePriceModel, DurableFunctionsRuntime, \
    OrchestratorSpec
from repro.azure.app import FunctionAppService
from repro.aws.stepfunctions import EXPRESS
from repro.core import Testbed, build_ml_training_deployments, cost_report
from repro.core.report import render_table
from repro.platforms.base import FunctionSpec
from repro.platforms.billing import BillingMeter
from repro.sim import Environment, RandomStreams
from repro.storage.meter import TransactionMeter
from repro.telemetry import Telemetry


# -- Express workflows ---------------------------------------------------------------

def test_extension_express_vs_standard_pricing(benchmark):
    """Express turns the paper's ~20 % small-dataset transition share
    into a near-zero stateful cost for short workflows."""

    def run_both():
        def stage(ctx, event):
            yield from ctx.busy(2.0)
            return event

        definition = {
            "StartAt": "S0",
            "States": {
                "S0": {"Type": "Task", "Resource": "stage", "Next": "S1"},
                "S1": {"Type": "Task", "Resource": "stage", "Next": "S2"},
                "S2": {"Type": "Task", "Resource": "stage", "Next": "S3"},
                "S3": {"Type": "Task", "Resource": "stage", "End": True},
            },
        }
        results = {}
        for workflow_type in ("standard", "express"):
            testbed = fresh_testbed(seed=5)
            testbed.lambdas.register(FunctionSpec(
                name="stage", handler=stage, memory_mb=1536,
                timeout_s=60.0))
            testbed.stepfunctions.create_state_machine(
                "wf", definition, workflow_type=workflow_type)
            for _ in range(20):
                record = testbed.run(
                    testbed.stepfunctions.start_execution("wf", 1))
                assert record.status == "SUCCEEDED"
                testbed.advance(10.0)
            breakdown = testbed.aws_prices.breakdown(
                testbed.aws.billing, testbed.aws.meter)
            results[workflow_type] = breakdown
        return results

    results = once(benchmark, run_both)
    print()
    print(render_table(
        ["workflow type", "compute $", "stateful $", "stateful share"],
        [[name, b.stateless, b.stateful, f"{b.stateful_share:.1%}"]
         for name, b in results.items()],
        title="Extension: Standard vs Express pricing, 20 runs of a "
              "4-state workflow"))

    standard = results["standard"]
    express = results["express"]
    assert standard.transitions > 0 and standard.express == 0
    assert express.transitions == 0 and express.express > 0
    # Express's stateful cost undercuts Standard's for this shape.
    assert express.stateful < standard.stateful * 0.5
    # Compute (the Lambdas) is identical either way.
    assert abs(express.stateless - standard.stateless) \
        < standard.stateless * 0.05


# -- Premium plan ------------------------------------------------------------------------

def test_extension_premium_plan_trade_off(benchmark):
    """Pre-warmed capacity kills the durable cold start; the bill becomes
    a fixed monthly line item instead."""

    def run_both():
        def double(ctx, event):
            yield from ctx.busy(0.5)
            return event * 2

        def orchestrator(context):
            result = yield context.call_activity("double", context.input)
            return result

        outcomes = {}
        for plan in (FunctionAppService.CONSUMPTION,
                     FunctionAppService.PREMIUM):
            env = Environment()
            telemetry = Telemetry(clock=lambda: env.now)
            billing = BillingMeter(clock=lambda: env.now)
            meter = TransactionMeter()
            runtime = DurableFunctionsRuntime(
                env, telemetry, billing, meter, RandomStreams(3), plan=plan)
            runtime.register_activity(FunctionSpec(
                name="double", handler=double, memory_mb=1536,
                timeout_s=60.0))
            runtime.register_orchestrator(OrchestratorSpec(
                "wf", orchestrator))

            delays = []
            for index in range(24):    # one request per hour, one day
                def scenario(env):
                    instance_id = yield from runtime.client.start_new(
                        "wf", index)
                    yield from runtime.client.wait_for_completion(
                        instance_id)
                    return runtime.client.get_status(instance_id)

                instance = env.run(until=env.process(scenario(env)))
                delays.append(instance.cold_start_delay)
                env.run(until=env.now + 3600.0)
            outcomes[plan] = {
                "median_cold": float(np.median(delays)),
                "monthly_fixed": (AzurePriceModel(
                    runtime.app.calibration).premium_monthly_cost()
                    if plan == FunctionAppService.PREMIUM else 0.0),
            }
        return outcomes

    outcomes = once(benchmark, run_both)
    print()
    print(render_table(
        ["plan", "median start delay (s)", "fixed $/month"],
        [[plan, data["median_cold"], data["monthly_fixed"]]
         for plan, data in outcomes.items()],
        title="Extension: consumption vs premium plan, hourly durable "
              "requests"))

    consumption = outcomes[FunctionAppService.CONSUMPTION]
    premium = outcomes[FunctionAppService.PREMIUM]
    # Premium erases the cold start...
    assert premium["median_cold"] < consumption["median_cold"] * 0.5
    assert premium["median_cold"] < 0.5
    # ... at a fixed price that dwarfs the consumption bill for this load.
    assert premium["monthly_fixed"] > 100.0


# -- Netherite ------------------------------------------------------------------------------

def test_extension_netherite_backend(benchmark):
    """Netherite-style batching/caching removes most of the durable tax
    the paper measured: replay GB-s and storage transactions collapse."""

    def run_both():
        outcomes = {}
        for netherite in (False, True):
            testbed = Testbed(seed=37)
            testbed.azure_calibration.netherite_mode = netherite
            deployment = build_ml_training_deployments(
                testbed, "small")["Az-Dorch"]
            deployment.deploy()
            latencies = []
            for _ in range(10):
                run = testbed.run(deployment.invoke())
                latencies.append(run.latency)
                testbed.advance(30.0)
            report = cost_report(deployment, per_runs=10)
            outcomes["netherite" if netherite else "classic"] = {
                "median_latency": float(np.median(latencies)),
                "gb_s": report.gb_s,
                "replay_gb_s": report.replay_gb_s,
                "table_tx": testbed.azure.meter.count(service="table"),
            }
        return outcomes

    outcomes = once(benchmark, run_both)
    print()
    print(render_table(
        ["backend", "median latency (s)", "GB-s/run", "replay GB-s/run",
         "table tx"],
        [[name, data["median_latency"], data["gb_s"],
          data["replay_gb_s"], data["table_tx"]]
         for name, data in outcomes.items()],
        title="Extension: classic Durable backend vs Netherite mode "
              "(Az-Dorch ML training, small)"))

    classic = outcomes["classic"]
    netherite = outcomes["netherite"]
    assert netherite["replay_gb_s"] < classic["replay_gb_s"] * 0.5
    assert netherite["table_tx"] < classic["table_tx"] * 0.6
    assert netherite["median_latency"] < classic["median_latency"]
