"""The GCP platform backend: Workflows + Cloud Functions in the registry.

The third data point: step-based synchronous workflows over
one-request-per-instance functions.  This module is also the template
the DESIGN.md "Adding a platform backend" walkthrough points at — a
fourth platform (the ROADMAP's OpenWhisk item) is this file's shape plus
its service modules, and nothing else.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.platforms.backend import (
    BillingRules,
    PlatformBackend,
    register_backend,
)


class GCPBackend(PlatformBackend):
    """GCP Cloud Functions (gen1) + Workflows."""

    name = "gcp"
    variant_prefix = "GCP"

    # -- calibration -----------------------------------------------------------

    def calibration_type(self) -> type:
        from repro.gcp.calibration import GCPCalibration
        return GCPCalibration

    def default_calibration(self) -> Any:
        from repro.gcp.calibration import default_gcp_calibration
        return default_gcp_calibration()

    def fuzz_calibration_space(self) -> Dict[str, Tuple[Any, ...]]:
        # Instance-cap, memory-tier and client-retry knobs; memory
        # values are existing tiers so round_to_tier stays exact, and
        # the retry cap stays >= the default 1.0 s interval.
        return {
            "max_instances": (4, 100, 1000),
            "default_memory_mb": (256, 2048, 4096),
            "keep_alive_s": (120.0, 900.0),
            "throttle_retry_max_attempts": (1, 2, 5),
            "throttle_retry_cap_s": (1.0, 16.0),
        }

    # -- stack construction ----------------------------------------------------

    def build(self, testbed: Any, calibration: Any) -> Any:
        from repro.core.testbed import PlatformStack
        from repro.gcp.functions import CloudFunctionsService
        from repro.gcp.workflows import GCPWorkflowsService
        from repro.platforms.billing import BillingMeter
        from repro.storage import BlobStore, TransactionMeter
        from repro.telemetry import Telemetry

        env = testbed.env   # not testbed: the services would cycle back
        clock = lambda: env.now  # noqa: E731 - tiny clock closure
        telemetry = Telemetry(clock, enabled=calibration.telemetry_spans)
        billing = BillingMeter(clock)
        meter = TransactionMeter()
        blob = BlobStore(testbed.env, meter, testbed.streams.get("gcp.blob"),
                         account="gcs")
        stack = PlatformStack(telemetry, billing, meter, blob)
        testbed.cloudfunctions = CloudFunctionsService(
            testbed.env, telemetry, billing, testbed.streams,
            calibration=calibration, services={"blob": blob},
            faults=testbed.faults)
        testbed.workflows = GCPWorkflowsService(
            testbed.env, testbed.cloudfunctions, telemetry, meter,
            faults=testbed.faults)
        return stack

    def price_model(self, calibration: Any) -> Any:
        from repro.gcp.pricing import GCPPriceModel
        return GCPPriceModel(calibration)

    # -- deploy / invoke -------------------------------------------------------

    def register_function(self, testbed: Any, spec: Any) -> Any:
        return testbed.cloudfunctions.register(spec)

    def invoke_function(self, testbed: Any, name: str,
                        event: Any) -> Generator:
        result = yield from testbed.cloudfunctions.invoke(name, event)
        return result

    def deploy_workflow(self, testbed: Any, workflow: Any) -> str:
        return workflow.deploy_gcp(testbed)

    def invoke_workflow(self, testbed: Any, name: str,
                        payload: Any) -> Generator:
        record = yield from testbed.workflows.execute(name, payload)
        if record.status == "SUCCEEDED":
            return "SUCCEEDED", record.output
        return "FAILED", record.error

    # -- limits ----------------------------------------------------------------

    def payload_limit_bytes(self, calibration: Any) -> int:
        return calibration.payload_limit_bytes

    # -- billing / accounting --------------------------------------------------

    def billing_rules(self, calibration: Any) -> BillingRules:
        # gen1 bills the configured tier exactly (tier rounding happens
        # at registration, so spans already record tier memory); 429s
        # are rejected before the request charge.
        return BillingRules(
            granularity_s=calibration.billing_granularity_s)

    def throttle_count(self, testbed: Any) -> int:
        return testbed.cloudfunctions.throttles

    def retry_count(self, testbed: Any) -> int:
        return testbed.workflows.throttle_retries

    # -- cost reporting --------------------------------------------------------

    def cost_breakdown(self, testbed: Any) -> Dict[str, Any]:
        stack = testbed.stack(self.name)
        breakdown = testbed.gcp_prices.breakdown(stack.billing, stack.meter)
        return {"gb_s": breakdown.gb_s,
                "compute_cost": breakdown.stateless,
                "transaction_cost": breakdown.stateful,
                "transaction_count": breakdown.step_count,
                "replay_gb_s": 0.0}

    # -- audit evidence --------------------------------------------------------

    def leak_evidence(self, testbed: Any) -> List[str]:
        evidence: List[str] = []
        functions = testbed.cloudfunctions
        if functions._in_flight != 0:
            evidence.append(
                f"gcp: {functions._in_flight} function invocations still "
                "in flight at quiesce")
        busy = sum(1 for instances in functions._warm.values()
                   for instance in instances if instance.busy)
        if busy:
            evidence.append(f"gcp: {busy} function instances still busy")
        running = [record.execution_id for record
                   in testbed.workflows.executions
                   if record.status == "RUNNING"]
        if running:
            evidence.append(
                f"gcp: workflow executions still running: {running}")
        return evidence

    # -- chaos -----------------------------------------------------------------

    def crash_host(self, testbed: Any) -> Optional[Generator]:
        testbed.cloudfunctions.simulate_host_crash()
        return None


register_backend(GCPBackend())
