"""The AWS platform backend: Lambda + Step Functions behind the registry.

Adapts the existing AWS services to the
:class:`~repro.platforms.backend.PlatformBackend` interface so the
testbed, campaign executors, auditor and CLI can drive AWS without
naming it.  Registered at import by the registry's lazy builtin loader.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.platforms.backend import (
    BillingRules,
    PlatformBackend,
    register_backend,
)


class AWSBackend(PlatformBackend):
    """AWS Lambda + Step Functions."""

    name = "aws"
    variant_prefix = "AWS"

    # -- calibration -----------------------------------------------------------

    def calibration_type(self) -> type:
        from repro.platforms.calibration import AWSCalibration
        return AWSCalibration

    def default_calibration(self) -> Any:
        from repro.platforms.calibration import default_aws_calibration
        return default_aws_calibration()

    def fuzz_calibration_space(self) -> Dict[str, Tuple[Any, ...]]:
        # Admission-control and keep-alive knobs: any combination keeps
        # AWSCalibration.validate() passing (retry cap stays >= the
        # default 0.5 s interval).
        return {
            "concurrency_limit": (5, 50, 1000),
            "burst_concurrency": (5, 100, 1000),
            "refill_per_s": (10.0, 100.0, 500.0),
            "keep_alive_s": (60.0, 600.0),
            "default_memory_mb": (512, 1536, 3008),
            "throttle_retry_max_attempts": (1, 3, 6),
            "throttle_retry_cap_s": (0.5, 8.0),
        }

    # -- stack construction ----------------------------------------------------

    def build(self, testbed: Any, calibration: Any) -> Any:
        from repro.aws import AWSPriceModel  # noqa: F401 - registry sanity
        from repro.aws.lambda_service import LambdaService
        from repro.aws.stepfunctions import StepFunctionsService
        from repro.core.testbed import PlatformStack
        from repro.platforms.billing import BillingMeter
        from repro.storage import BlobStore, TransactionMeter
        from repro.telemetry import Telemetry

        env = testbed.env   # not testbed: the services would cycle back
        clock = lambda: env.now  # noqa: E731 - tiny clock closure
        telemetry = Telemetry(clock, enabled=calibration.telemetry_spans)
        billing = BillingMeter(clock)
        meter = TransactionMeter()
        blob = BlobStore(testbed.env, meter, testbed.streams.get("aws.blob"),
                         account="s3")
        stack = PlatformStack(telemetry, billing, meter, blob)
        testbed.lambdas = LambdaService(
            testbed.env, telemetry, billing, testbed.streams,
            calibration=calibration, services={"blob": blob},
            faults=testbed.faults)
        testbed.stepfunctions = StepFunctionsService(
            testbed.env, testbed.lambdas, telemetry, meter,
            faults=testbed.faults)
        return stack

    def price_model(self, calibration: Any) -> Any:
        from repro.aws import AWSPriceModel
        return AWSPriceModel(calibration)

    # -- deploy / invoke -------------------------------------------------------

    def register_function(self, testbed: Any, spec: Any) -> Any:
        return testbed.lambdas.register(spec)

    def invoke_function(self, testbed: Any, name: str,
                        event: Any) -> Generator:
        result = yield from testbed.lambdas.invoke(name, event)
        return result

    def deploy_workflow(self, testbed: Any, workflow: Any) -> str:
        return workflow.deploy_aws(testbed)

    def invoke_workflow(self, testbed: Any, name: str,
                        payload: Any) -> Generator:
        record = yield from testbed.stepfunctions.start_execution(
            name, payload)
        if record.status == "SUCCEEDED":
            return "SUCCEEDED", record.output
        return "FAILED", record.error

    # -- limits ----------------------------------------------------------------

    def payload_limit_bytes(self, calibration: Any) -> int:
        return calibration.payload_limit_bytes

    # -- billing / accounting --------------------------------------------------

    def billing_rules(self, calibration: Any) -> BillingRules:
        # AWS bills configured memory exactly; throttles are rejected
        # before the request charge, so requests == executions.
        return BillingRules(
            granularity_s=calibration.billing_granularity_s)

    def throttle_count(self, testbed: Any) -> int:
        return testbed.lambdas.throttles

    def retry_count(self, testbed: Any) -> int:
        return testbed.stepfunctions.throttle_retries

    # -- cost reporting --------------------------------------------------------

    def cost_breakdown(self, testbed: Any) -> Dict[str, Any]:
        stack = testbed.stack(self.name)
        breakdown = testbed.aws_prices.breakdown(stack.billing, stack.meter)
        return {"gb_s": breakdown.gb_s,
                "compute_cost": breakdown.stateless,
                "transaction_cost": breakdown.stateful,
                "transaction_count": breakdown.transition_count,
                "replay_gb_s": 0.0}

    # -- audit evidence --------------------------------------------------------

    def leak_evidence(self, testbed: Any) -> List[str]:
        evidence: List[str] = []
        lambdas = testbed.lambdas
        if lambdas._in_flight != 0:
            evidence.append(
                f"aws: {lambdas._in_flight} Lambda invocations still "
                "in flight at quiesce")
        busy = sum(1 for containers in lambdas._warm.values()
                   for container in containers if container.busy)
        if busy:
            evidence.append(f"aws: {busy} Lambda containers still busy")
        return evidence

    # -- chaos -----------------------------------------------------------------

    def crash_host(self, testbed: Any) -> Optional[Generator]:
        testbed.lambdas.simulate_host_crash()
        return None


register_backend(AWSBackend())
