"""Calibration constants for the GCP Workflows + Cloud Functions simulation.

Like :mod:`repro.platforms.calibration`, mechanisms live in the service
modules; the constants below only set their magnitudes.  The values are
drawn from Google's public documentation and price sheets plus the
cross-provider measurement literature (SeBS-Flow; Wen et al.'s empirical
study of serverless workflow services), not from the source paper — GCP
is the *extension* platform, the third data point the paper could not
produce.

All times are seconds, all prices USD, all memory MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.sim.distributions import Distribution, Normal, Uniform
from repro.storage.payload import KB


@dataclass
class GCPCalibration:
    """GCP Cloud Functions (gen1) + Workflows constants."""

    # -- execution environment ---------------------------------------------------
    region: str = "us-central1"
    runtime: str = "Python 3.7"
    default_memory_mb: int = 2048
    #: Cloud Functions gen1 memory tiers; registrations round up to the
    #: next tier so workload function specs stay portable across
    #: platforms (a shared 1536 MB spec lands on the 2048 MB tier).
    memory_tiers: Tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096, 8192)
    #: gen1 execution cap (9 minutes); longer spec timeouts are clamped.
    time_limit_s: float = 540.0
    #: Workflows caps data crossing any step boundary tightly (64 KB
    #: arguments/results — the same order as Azure's durable limit, far
    #: below Step Functions' 256 KB).
    payload_limit_bytes: int = 64 * KB

    # -- Cloud Functions runtime behaviour ----------------------------------------
    #: Cold-start provisioning per new instance.  Measurement studies
    #: place gen1 Python cold starts well above AWS's: ~1.5-4 s.
    cold_start: Distribution = field(
        default_factory=lambda: Uniform(1.5, 4.0))
    #: Warm invocation dispatch overhead.
    warm_start: Distribution = field(
        default_factory=lambda: Uniform(0.008, 0.030))
    #: Idle instance keep-alive before reclamation (gen1 keeps instances
    #: warm noticeably longer than Lambda).
    keep_alive_s: float = 900.0
    #: Instance cap.  gen1 serves **one request per instance** — there is
    #: no per-instance concurrency — so this bounds in-flight requests;
    #: excess requests are rejected 429 RESOURCE_EXHAUSTED.
    max_instances: int = 1000
    #: Execution-time jitter applied multiplicatively to handler busy time.
    execution_jitter: Distribution = field(
        default_factory=lambda: Normal(mu=1.0, sigma=0.05))

    # -- Workflows behaviour --------------------------------------------------------
    #: Scheduler latency per step transition (assign/switch/return and
    #: the non-HTTP part of call steps).
    transition_latency: Distribution = field(
        default_factory=lambda: Uniform(0.010, 0.030))
    #: Extra synchronous HTTP round-trip a call step pays invoking a
    #: Cloud Function (Workflows chains steps over HTTP, not a queue).
    http_call_overhead: Distribution = field(
        default_factory=lambda: Uniform(0.020, 0.080))
    #: Workflows' default retry policy absorbs 429s from called
    #: functions: attempts before the error surfaces to the execution.
    throttle_retry_max_attempts: int = 5
    #: Base delay of the throttle-retry exponential backoff.
    throttle_retry_interval_s: float = 1.0
    #: Ceiling of the throttle-retry backoff (capped exponential).
    throttle_retry_cap_s: float = 16.0

    # -- billing (2021 public price sheets) -------------------------------------------
    #: Cloud Functions compute.  GCP bills GB-s and GHz-s separately;
    #: since CPU scales with the memory tier the two are proportional,
    #: and this constant is the combined effective $/GB-s.
    gb_s_price: float = 1.65e-5
    request_price: float = 4.0e-7          # $0.40 per 1M invocations
    #: Workflows bills per executed *step*: internal steps $0.01 per 1K,
    #: steps making external calls (our function invocations) $0.025
    #: per 1K.
    internal_step_price: float = 1.0e-5
    external_step_price: float = 2.5e-5
    billing_granularity_s: float = 0.100   # gen1 rounds up to 100 ms

    #: Memory tier at which a function gets a full vCPU (2.4 GHz).
    full_cpu_memory_mb: float = 2048.0

    #: Collect telemetry spans (see
    #: :attr:`repro.platforms.calibration.AWSCalibration.telemetry_spans`).
    telemetry_spans: bool = True

    def cpu_factor(self, memory_mb: int) -> float:
        """Execution-time multiplier for a given memory tier."""
        factor = self.full_cpu_memory_mb / float(memory_mb)
        return min(3.0, max(0.5, factor))

    def round_to_tier(self, memory_mb: int) -> int:
        """The smallest memory tier holding ``memory_mb``."""
        for tier in self.memory_tiers:
            if memory_mb <= tier:
                return tier
        raise ValueError(
            f"memory {memory_mb} MB exceeds the largest Cloud Functions "
            f"tier ({self.memory_tiers[-1]} MB)")

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical settings (mirrors the AWS/Azure pattern;
        re-run after :meth:`CampaignSpec.calibrations` applies overrides)."""
        if not self.memory_tiers:
            raise ValueError("memory_tiers must be non-empty")
        if tuple(sorted(self.memory_tiers)) != tuple(self.memory_tiers):
            raise ValueError("memory_tiers must be sorted ascending")
        if not self.max_instances > 0:
            raise ValueError("max_instances must be positive")
        if not self.throttle_retry_max_attempts >= 1:
            raise ValueError("throttle_retry_max_attempts must be >= 1")
        if not self.throttle_retry_interval_s > 0:
            raise ValueError("throttle_retry_interval_s must be positive")
        if not (self.throttle_retry_cap_s
                >= self.throttle_retry_interval_s):
            raise ValueError(
                "throttle_retry_cap_s must be >= throttle_retry_interval_s")


def default_gcp_calibration() -> GCPCalibration:
    """A fresh GCP calibration with the documented defaults."""
    return GCPCalibration()
