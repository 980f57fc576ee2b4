"""The testbed: one simulated world holding every registered platform.

A :class:`Testbed` owns a single simulation environment plus, per
registered :class:`~repro.platforms.backend.PlatformBackend`, a complete
service stack (runtime, storage, telemetry, billing and transaction
meters).  Deployments register their functions into the testbed; the
experiment runner drives invocations and reads measurements back out of
it.

The testbed names no platform: it iterates
:func:`~repro.platforms.backend.registered_backends` and lets each
backend construct its services.  Per-platform attributes the platform
modules historically exposed (``testbed.lambdas``, ``testbed.durable``,
``testbed.aws_calibration``, ``testbed.azure_prices``, ...) are set by
the backends' ``build`` hooks and by generic ``<name>_calibration`` /
``<name>_prices`` setattr loops, so existing deployments and tests keep
working unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, Optional

from repro.platforms.backend import get_backend, registered_backends
from repro.platforms.billing import BillingMeter
from repro.platforms.faults import FaultInjector, FaultPlan
from repro.sim import Environment, RandomStreams
from repro.storage import BlobStore, TransactionMeter
from repro.telemetry import Telemetry


@dataclass
class PlatformStack:
    """One platform's services and meters."""

    telemetry: Telemetry
    billing: BillingMeter
    meter: TransactionMeter
    blob: BlobStore

    def reset_meters(self) -> None:
        """Clear billing/transaction/telemetry state between campaigns."""
        self.telemetry.reset()
        self.billing.reset()
        self.meter.reset()


class Testbed:
    """A fresh simulated world with every registered platform side by side."""

    #: not a pytest test class, despite the name
    __test__ = False

    def __init__(self, seed: int = 0,
                 calibrations: Optional[Dict[str, Any]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 audit: bool = False,
                 platforms: Optional[Iterable[str]] = None):
        """Build one stack per registered backend.

        ``calibrations`` maps backend names to calibration objects;
        unnamed backends get their defaults.  ``platforms`` restricts the
        build to a subset of backend names (all by default).
        """
        self.env = Environment()
        self.streams = RandomStreams(seed=seed)
        #: run ids for every deployment on this testbed: they name run
        #: values and blob keys (``runs/{id}/...``) in stores that
        #: variants of one platform share
        self.run_ids = itertools.count(1)
        calibrations = dict(calibrations or {})

        backends = registered_backends()
        if platforms is not None:
            wanted = list(platforms)
            for name in wanted:
                get_backend(name)   # fail fast on unknown names
            backends = tuple(backend for backend in backends
                             if backend.name in wanted)
        known = {backend.name for backend in backends}
        for name in calibrations:
            if name not in known:
                get_backend(name)   # raises with the registered names
                raise ValueError(
                    f"calibration for {name!r} but that platform is "
                    f"excluded by platforms={sorted(known)}")

        # The auditor must become the kernel monitor before the stacks
        # exist so every CloudQueue (the task hub's control/work-item
        # queues included) self-registers at construction; it learns the
        # stack references afterwards via attach().
        self.auditor = None
        if audit:
            from repro.core.audit import InvariantAuditor
            self.auditor = InvariantAuditor()
            self.env.monitor = self.auditor
        # The injector must exist before the services so they can thread
        # it through to handlers and queues at registration time.  With
        # no (enabled) plan it stays None and every platform behaves
        # bit-identically to a fault-free testbed.
        self.faults: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.enabled:
            self.faults = FaultInjector(plan=fault_plan,
                                        streams=self.streams)

        self.platform_names: tuple = tuple(backend.name
                                           for backend in backends)
        self.stacks: Dict[str, PlatformStack] = {}
        self.calibrations: Dict[str, Any] = {}
        self.price_models: Dict[str, Any] = {}
        for backend in backends:
            calibration = calibrations.get(backend.name)
            if calibration is None:
                calibration = backend.default_calibration()
            stack = backend.build(self, calibration)
            prices = backend.price_model(calibration)
            self.stacks[backend.name] = stack
            self.calibrations[backend.name] = calibration
            self.price_models[backend.name] = prices
            # Back-compat attribute surface: testbed.aws,
            # testbed.azure_calibration, testbed.gcp_prices, ...
            setattr(self, backend.name, stack)
            setattr(self, f"{backend.name}_calibration", calibration)
            setattr(self, f"{backend.name}_prices", prices)

        if self.faults is not None and (
                self.faults.plan.host_crash_times
                or self.faults.crash_outage_starts):
            self.env.process(self._host_crash_schedule())

        if self.auditor is not None:
            self.auditor.attach(self)

    def _host_crash_schedule(self) -> Generator:
        """Crash every platform's hosts at each scheduled chaos time.

        The schedule merges explicit ``host_crash_times`` with the starts
        of crash-mode outage windows (a zone outage drops every warm pool
        the instant it begins).  Each backend decides what a host crash
        means for it (dropping warm containers, recovering orchestrations
        from history, ...).  Runs as an unmonitored background process,
        so it must never raise: backends swallow recovery failures
        themselves (an un-recovered instance is itself a fault outcome).
        """
        faults = self.faults
        schedule = sorted(
            [(t, "host") for t in faults.plan.host_crash_times]
            + [(t, "outage") for t in faults.crash_outage_starts])
        for crash_time, kind in schedule:
            delay = crash_time - self.env.now
            if delay > 0:
                yield self.env.timeout(delay)
            crashed_at = self.env.now
            if kind == "host":
                faults.host_crashes += 1
            else:
                faults.outage_host_drops += 1
            for name in self.platform_names:
                recovery = get_backend(name).crash_host(self)
                if recovery is not None:
                    yield from recovery
            if kind == "host":
                faults.host_recovery_times.append(self.env.now - crashed_at)

    @property
    def app(self):
        """The Azure function app (shared by durable and plain functions)."""
        return self.durable.app

    @property
    def now(self) -> float:
        return self.env.now

    def run(self, generator: Generator) -> Any:
        """Drive a workflow generator to completion on the testbed clock."""
        def process(env):
            result = yield from generator
            return result
        return self.env.run(until=self.env.process(process(self.env)))

    def advance(self, seconds: float) -> None:
        """Let simulated time pass (background pumps keep running)."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        self.env.run(until=self.env.now + seconds)

    def stack(self, platform: str) -> PlatformStack:
        """The meter stack for a registered platform name."""
        try:
            return self.stacks[platform]
        except KeyError:
            raise ValueError(
                f"unknown platform: {platform!r} (this testbed built "
                f"{list(self.platform_names)})") from None

    def calibration(self, platform: str) -> Any:
        """The calibration a registered platform was built with."""
        try:
            return self.calibrations[platform]
        except KeyError:
            raise ValueError(
                f"unknown platform: {platform!r} (this testbed built "
                f"{list(self.platform_names)})") from None
