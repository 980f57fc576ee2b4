"""The Azure platform backend: Functions + Durable behind the registry.

Adapts the existing Azure services to the
:class:`~repro.platforms.backend.PlatformBackend` interface.  Azure owns
the richest audit surface of the three builtin backends: measured-memory
billing with 128 MB rounding, deadline shedding billed at the request
level, orchestration-history replay determinism, and completion-dedupe
delivery evidence.  Registered at import by the registry's lazy builtin
loader.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.platforms.backend import (
    BillingRules,
    PlatformBackend,
    register_backend,
)


class AzureBackend(PlatformBackend):
    """Azure Functions (Consumption) + Durable Functions."""

    name = "azure"
    variant_prefix = "Az"

    # -- calibration -----------------------------------------------------------

    def calibration_type(self) -> type:
        from repro.platforms.calibration import AzureCalibration
        return AzureCalibration

    def default_calibration(self) -> Any:
        from repro.platforms.calibration import default_azure_calibration
        return default_azure_calibration()

    def fuzz_calibration_space(self) -> Dict[str, Tuple[Any, ...]]:
        # Scale-controller and overload-protection knobs; the optional
        # bounds stay positive (None = platform default, also valid).
        return {
            "max_instances": (2, 20, 200),
            "instance_concurrency": (1, 2, 4),
            "instances_per_decision": (1, 2, 4),
            "scale_interval_s": (5.0, 10.0, 30.0),
            "queue_depth_limit": (None, 8, 64),
            "shed_deadline_s": (None, 5.0, 30.0),
        }

    # -- stack construction ----------------------------------------------------

    def build(self, testbed: Any, calibration: Any) -> Any:
        from repro.azure import DurableFunctionsRuntime
        from repro.core.testbed import PlatformStack
        from repro.platforms.billing import BillingMeter
        from repro.storage import BlobStore, TransactionMeter
        from repro.telemetry import Telemetry

        env = testbed.env   # not testbed: the services would cycle back
        clock = lambda: env.now  # noqa: E731 - tiny clock closure
        telemetry = Telemetry(clock, enabled=calibration.telemetry_spans)
        billing = BillingMeter(clock)
        meter = TransactionMeter()
        blob = BlobStore(testbed.env, meter,
                         testbed.streams.get("azure.blob"),
                         account="azblob")
        stack = PlatformStack(telemetry, billing, meter, blob)
        testbed.durable = DurableFunctionsRuntime(
            testbed.env, telemetry, billing, meter, testbed.streams,
            calibration=calibration, services={"blob": blob},
            faults=testbed.faults)
        return stack

    def price_model(self, calibration: Any) -> Any:
        from repro.azure import AzurePriceModel
        return AzurePriceModel(calibration)

    # -- deploy / invoke -------------------------------------------------------

    def register_function(self, testbed: Any, spec: Any) -> Any:
        return testbed.app.register(spec)

    def invoke_function(self, testbed: Any, name: str,
                        event: Any) -> Generator:
        result = yield from testbed.app.invoke(name, event)
        return result

    def deploy_workflow(self, testbed: Any, workflow: Any) -> str:
        return workflow.deploy_azure(testbed)

    def invoke_workflow(self, testbed: Any, name: str,
                        payload: Any) -> Generator:
        from repro.azure.durable import OrchestrationFailedError
        client = testbed.durable.client
        instance_id = yield from client.start_new(name, payload)
        try:
            output = yield from client.wait_for_completion(instance_id)
        except OrchestrationFailedError as error:
            return "FAILED", str(error)
        return "SUCCEEDED", output

    # -- limits ----------------------------------------------------------------

    def payload_limit_bytes(self, calibration: Any) -> int:
        return calibration.durable_payload_limit_bytes

    # -- billing / accounting --------------------------------------------------

    def billing_rules(self, calibration: Any) -> BillingRules:
        # Azure bills measured memory rounded up to 128 MB with a 100 ms
        # execution minimum; deadline sheds happen after the request
        # charge, so billed requests = executions + sheds.
        return BillingRules(
            granularity_s=calibration.billing_granularity_s,
            min_billed_s=calibration.min_billed_execution_s,
            memory_rounding_mb=128,
            bills_shed_requests=True)

    def throttle_count(self, testbed: Any) -> int:
        return testbed.app.rejections

    def shed_count(self, testbed: Any) -> int:
        return testbed.app.shed

    # -- cost reporting --------------------------------------------------------

    def cost_breakdown(self, testbed: Any) -> Dict[str, Any]:
        stack = testbed.stack(self.name)
        breakdown = testbed.azure_prices.breakdown(stack.billing,
                                                   stack.meter)
        replay_gb_s = sum(
            charge.gb_s for charge in stack.billing.compute
            if charge.replay
            or charge.function_name.startswith("orchestrator::"))
        return {"gb_s": breakdown.gb_s,
                "compute_cost": breakdown.stateless,
                "transaction_cost": breakdown.stateful,
                "transaction_count": breakdown.transaction_count,
                "replay_gb_s": replay_gb_s}

    # -- audit evidence --------------------------------------------------------

    def leak_evidence(self, testbed: Any) -> List[str]:
        evidence: List[str] = []
        app = testbed.app
        if app._pending:
            evidence.append(
                f"azure: {len(app._pending)} work items still pending")
        in_use = sum(instance.in_use for instance in app.instances)
        if in_use:
            evidence.append(
                f"azure: {in_use} app instance slots still in use")
        hub = testbed.durable.taskhub
        active = sorted(instance_id for instance_id, instance
                        in hub.instances.items() if instance.episode_active)
        if active:
            evidence.append(
                f"azure: episodes still active for {active}")
        return evidence

    def delivery_evidence(self, testbed: Any) -> List[str]:
        """Duplicate completion events in any orchestration history.

        Each scheduled operation owns one sequence number, so a second
        completion event for the same ``seq`` means the completion
        dedupe failed (double-processed — and double-billed — work).
        """
        from repro.azure.durable import history as h
        evidence: List[str] = []
        hub = testbed.durable.taskhub
        for instance_id in sorted(hub.instances):
            instance = hub.instances[instance_id]
            seen: Dict[int, int] = {}
            for event in instance.history:
                if isinstance(event, h.SUCCESS_EVENTS + h.FAILURE_EVENTS):
                    seen[event.seq] = seen.get(event.seq, 0) + 1
            for seq, count in sorted(seen.items()):
                if count > 1:
                    evidence.append(
                        f"instance {instance_id}: {count} completion "
                        f"events for seq {seq} — completion dedupe "
                        "failed under duplication faults")
        return evidence

    def replay_check(self, testbed: Any) -> Tuple[int, List[str]]:
        """Replay every finished orchestration's history twice; any
        divergence (between replays, or from the recorded status) is
        evidence of non-deterministic replay."""
        from repro.azure.durable.context import (
            OrchestrationContext,
            run_orchestrator_turn,
        )
        hub = testbed.durable.taskhub
        payload_limit = testbed.calibration(
            self.name).durable_payload_limit_bytes
        expected_state = {"Completed": "completed", "Failed": "failed"}
        evidence: List[str] = []
        replayed = 0
        for instance_id in sorted(hub.instances):
            instance = hub.instances[instance_id]
            if not instance.is_finished or not instance.history:
                continue
            spec = hub.orchestrators.get(instance.orchestrator)
            if spec is None:
                continue
            replayed += 1
            outcomes = []
            for _ in range(2):
                ctx = OrchestrationContext(
                    instance.instance_id, instance.input,
                    instance.history, payload_limit,
                    now=instance.completed_at or 0.0)
                try:
                    state, value = run_orchestrator_turn(spec, ctx)
                except Exception as error:  # noqa: BLE001 - divergence datum
                    outcomes.append(
                        ("replay-error", f"{type(error).__name__}: "
                                         f"{error}", ()))
                    continue
                outcomes.append(
                    (state, repr(value),
                     tuple(repr(action) for action in ctx.actions)))
            if outcomes[0] != outcomes[1]:
                evidence.append(
                    f"instance {instance_id}: two replays of the same "
                    f"history diverged: {outcomes[0][:2]} vs "
                    f"{outcomes[1][:2]}")
                continue
            state, value, _ = outcomes[0]
            want = expected_state.get(instance.status)
            if want is not None and state != want:
                evidence.append(
                    f"instance {instance_id}: recorded status "
                    f"{instance.status!r} but history replays to "
                    f"{state!r} ({value})")
        return replayed, evidence

    # -- chaos -----------------------------------------------------------------

    def crash_host(self, testbed: Any) -> Optional[Generator]:
        def recover() -> Generator:
            testbed.app.simulate_host_crash()
            hub = testbed.durable.taskhub
            pending = list(hub.simulate_host_crash())
            for instance_id in pending:
                try:
                    yield from hub.recover_instance(instance_id)
                except Exception:
                    pass
        return recover()


register_backend(AzureBackend())
