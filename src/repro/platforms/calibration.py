"""Calibration constants for both platform simulations.

Mechanisms (replay, polling, scale control, per-transition pricing) are
*implemented*; the constants below only set their magnitudes.  Each value
is annotated with the paper measurement or public price sheet it comes
from.  Absolute numbers are approximate by design — the reproduction
targets the paper's *shapes* (orderings, ratios, crossovers).

All times are seconds, all prices USD, all memory MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim.distributions import (
    Constant,
    Distribution,
    LogNormal,
    Mixture,
    Normal,
    Uniform,
)
from repro.storage.payload import KB, MB


@dataclass
class AWSCalibration:
    """AWS Lambda + Step Functions constants (paper Table I, §V)."""

    # -- execution environment (Table I) --------------------------------------
    region: str = "West US 2"
    runtime: str = "Python 3.7"
    default_memory_mb: int = 1536
    time_limit_s: float = 900.0            # 15 min
    payload_limit_bytes: int = 256 * KB    # Step Functions payload cap [18]

    # -- Lambda runtime behaviour ---------------------------------------------
    #: Cold-start provisioning per new container.  Paper §V-B: "AWS cold
    #: start delay remains in the range of 1-2 seconds".
    cold_start: Distribution = field(default_factory=lambda: Uniform(1.0, 2.0))
    #: Warm invocation dispatch overhead.
    warm_start: Distribution = field(
        default_factory=lambda: Uniform(0.005, 0.020))
    #: Idle container keep-alive before reclamation.
    keep_alive_s: float = 600.0
    #: Account-level concurrent execution limit (default AWS quota).
    concurrency_limit: int = 1000
    #: Token-bucket admission: burst capacity (requests admitted at once
    #: from a full bucket — AWS's initial burst concurrency quota).
    burst_concurrency: int = 1000
    #: Token-bucket admission: tokens restored per second of simulated
    #: time, up to ``burst_concurrency``.
    refill_per_s: float = 500.0
    #: Execution-time jitter applied multiplicatively to handler busy time.
    execution_jitter: Distribution = field(
        default_factory=lambda: Normal(mu=1.0, sigma=0.03))

    # -- Step Functions behaviour ----------------------------------------------
    #: Client-scheduler latency per state transition (sharp, small: the
    #: paper's Fig 7 shows a near-vertical CDF for AWS-Step).
    transition_latency: Distribution = field(
        default_factory=lambda: Uniform(0.015, 0.040))
    #: Extra dispatch overhead for the first state after an idle period —
    #: Fig 10 reports 3-5 s AWS-Step cold start (Start state to first
    #: function), i.e. Lambda cold start plus this machinery.
    step_cold_overhead: Distribution = field(
        default_factory=lambda: Uniform(1.5, 3.0))
    #: How many times Step Functions attempts a Task-state Lambda
    #: invocation that keeps coming back 429 before surfacing
    #: ``Lambda.TooManyRequestsException`` to Retry/Catch.
    throttle_retry_max_attempts: int = 6
    #: Base delay of the throttle-retry exponential backoff.
    throttle_retry_interval_s: float = 0.5
    #: Ceiling of the throttle-retry backoff (capped exponential).
    throttle_retry_cap_s: float = 8.0

    # -- billing (2021 public price sheet, us-west-2) ---------------------------
    gb_s_price: float = 1.66667e-5         # Lambda compute, $/GB-s
    request_price: float = 2.0e-7          # $0.20 per 1M requests
    transition_price: float = 2.5e-5       # Step Functions, $25 per 1M
    #: Express workflows: per-request plus duration-based pricing.
    express_request_price: float = 1.0e-6  # $1.00 per 1M requests
    express_gb_s_price: float = 1.667e-5   # $0.06 per GB-hour
    billing_granularity_s: float = 0.100   # paper §IV-A: rounded to 100 ms

    #: Hourly price of one provisioned-concurrency GB (2021 price sheet:
    #: $0.0000041667 per GB-s of provisioned capacity ≈ $0.015/GB-hour).
    provisioned_gb_hour_price: float = 0.015

    #: Memory at which a Lambda gets one full vCPU (CPU share scales
    #: linearly with configured memory — why the paper's video deployment
    #: needed 2 GB "to deliver the same latency", §V-B).
    full_cpu_memory_mb: float = 1769.0

    #: Collect telemetry spans.  Disabling drops span retention (a perf
    #: knob for huge sweeps) but starves the invariant auditor —
    #: ``CampaignSpec`` refuses ``audit=True`` with this off.
    telemetry_spans: bool = True

    def cpu_factor(self, memory_mb: int) -> float:
        """Execution-time multiplier for a given memory configuration."""
        factor = self.full_cpu_memory_mb / float(memory_mb)
        return min(3.0, max(0.5, factor))

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical admission-control settings.

        Called from ``__post_init__`` and again after
        :meth:`~repro.core.parallel.CampaignSpec.calibrations` applies
        overrides (which bypass dataclass construction).
        """
        if not self.concurrency_limit > 0:
            raise ValueError("concurrency_limit must be positive")
        if not self.burst_concurrency > 0:
            raise ValueError("burst_concurrency must be positive")
        if not self.refill_per_s > 0:
            raise ValueError("refill_per_s must be positive")
        if not self.throttle_retry_max_attempts >= 1:
            raise ValueError("throttle_retry_max_attempts must be >= 1")
        if not self.throttle_retry_interval_s > 0:
            raise ValueError("throttle_retry_interval_s must be positive")
        if not (self.throttle_retry_cap_s
                >= self.throttle_retry_interval_s):
            raise ValueError(
                "throttle_retry_cap_s must be >= throttle_retry_interval_s")


@dataclass
class AzureCalibration:
    """Azure Functions (Consumption) + Durable extension constants."""

    # -- execution environment (Table I) ----------------------------------------
    region: str = "US East"
    runtime: str = "Python 3.7"
    max_memory_mb: int = 1536              # consumption plan cap, not tunable
    time_limit_s: float = 1800.0           # 30 min
    durable_payload_limit_bytes: int = 64 * KB    # cross-function limit [19]
    queue_payload_limit_bytes: int = 256 * KB     # Azure Storage Queue cap

    # -- scale controller ---------------------------------------------------------
    #: How often the scale controller re-evaluates queue pressure.
    scale_interval_s: float = 10.0
    #: New instances added per decision when pressure is detected.
    instances_per_decision: int = 2
    #: Consumption-plan instance cap.
    max_instances: int = 200
    #: Concurrent executions one instance can host (Python worker).
    instance_concurrency: int = 2
    #: Idle instance lifetime before the controller reclaims it.
    instance_idle_timeout_s: float = 300.0
    #: Provisioning time for one new instance — wide and heavy-tailed:
    #: the paper's Fig 13 reports ~10 s average orchestrator starts with a
    #: wide range.  The slow mode models stuck/contended container starts.
    instance_provision: Distribution = field(
        default_factory=lambda: Mixture([
            (0.85, LogNormal(median=8.0, sigma=0.5)),
            (0.15, LogNormal(median=70.0, sigma=0.8)),
        ]))
    #: Scale-out stalls: occasionally the controller cannot allocate new
    #: instances for a while (capacity/allocation throttling).  Workers
    #: queued behind a stall wait minutes — the mechanism behind Fig 14's
    #: 5 %-at-270 s scheduling-delay tail and Table III's long finish
    #: times, and one of the paper's two observed slow-down modes ("in
    #: some other cases, this is due to the queue waiting time").
    scale_stall_probability: float = 0.08
    scale_stall_duration: Distribution = field(
        default_factory=lambda: LogNormal(median=350.0, sigma=0.5))

    # -- overload protection ----------------------------------------------------
    #: Bound on queued work before the trigger answers HTTP 429: caps the
    #: app's dispatch queue and the task hub's work-item queue (durable
    #: producers block instead — storage backpressure).  ``None`` leaves
    #: the queues unbounded, the platform default.
    queue_depth_limit: Optional[int] = None
    #: Deadline-based load shedding: accepted HTTP/queue-trigger work
    #: still waiting for an instance slot after this budget is dropped
    #: and accounted as *shed* (not failed).  ``None`` disables shedding.
    shed_deadline_s: Optional[float] = None

    # -- trigger dispatch ------------------------------------------------------------
    #: Warm dispatch of a durable work item (control/work-item queue hop).
    durable_dispatch: Distribution = field(
        default_factory=lambda: Uniform(0.030, 0.120))
    #: Orchestrator cold start after idle hours — Fig 10: "often less than
    #: 2 seconds" for durable orchestrators and entities.
    durable_cold_start: Distribution = field(
        default_factory=lambda: Uniform(0.5, 2.0))
    #: Queue-trigger chain cold start after idle hours — Fig 10: 10-20 s
    #: ("queuing of requests on a static pool of containers", citing [11]).
    queue_trigger_cold_start: Distribution = field(
        default_factory=lambda: Uniform(10.0, 20.0))
    #: HTTP-trigger cold start for plain functions.
    http_cold_start: Distribution = field(
        default_factory=lambda: Uniform(1.0, 4.0))
    #: Queue-trigger polling delay per hop in an Az-Queue function chain —
    #: Fig 8 shows ~30 s of 99ile queue time across the 4-function chain.
    queue_trigger_poll: Distribution = field(
        default_factory=lambda: LogNormal(median=2.2, sigma=0.85))
    #: Execution-time jitter (Azure shows more variance than AWS: Fig 7).
    execution_jitter: Distribution = field(
        default_factory=lambda: Normal(mu=1.0, sigma=0.08))
    #: Relative CPU slowness of consumption-plan Python workers versus a
    #: full Lambda vCPU (measurement studies consistently find Azure
    #: consumption instances slower for CPU-bound Python).
    cpu_slowdown: float = 1.25

    # -- durable task framework ---------------------------------------------------
    #: CPU time to start an orchestrator episode (load + dispatch).
    episode_base_cpu_s: float = 0.200
    #: CPU time to replay one completed history event during an episode.
    #: Drives the paper's Fig 11a GB-s inflation (Az-Dorch +44 %, Az-Dent
    #: +88 % over stateless) mechanistically.
    replay_event_cpu_s: float = 0.020
    #: Dispatch + serialization overhead per entity operation, on top of
    #: the state read/write table transactions.  Makes entity ops slower
    #: than the same logic in a stateless activity (§V-A key takeaway).
    entity_op_overhead: Distribution = field(
        default_factory=lambda: Uniform(0.150, 0.450))
    #: Execution-time multiplier for user logic running inside an entity
    #: versus the same logic in a stateless activity (paper Fig 8: Az-Dent
    #: executes ~8 % longer than Az-Dorch; §V-A key takeaway).
    entity_execution_slowdown: float = 1.15
    #: Control/work-item queue polling backoff bounds while idle.
    min_poll_interval_s: float = 0.10
    max_poll_interval_s: float = 30.0
    #: Skip simulating individual empty polls when a queue is provably
    #: idle: consumers block on the enqueue wakeup and the elided polls
    #: are metered in batches (identical bill, far fewer kernel events).
    #: Queues under fault plans or depth bounds always fall back to
    #: sampled polling regardless of this flag.
    idle_poll_elision: bool = True
    #: Task hub control-queue partitions (Durable default).
    partition_count: int = 4
    #: Partition lease (blob) heartbeat interval — billed while idle.
    lease_renewal_interval_s: float = 10.0
    #: The Azure scale controller polls every task-hub queue on the
    #: *tenant's* storage account around the clock to decide scaling —
    #: the notorious source of idle-durable-app storage bills, and the
    #: paper's "constant queue and event polling adds 70 % transition
    #: cost" (Fig 15).
    controller_poll_interval_s: float = 0.7

    # -- Netherite mode (related work, §VI) --------------------------------------------
    #: Netherite [Burckhardt et al. 2021] replaces the storage-queue/table
    #: backend with partitioned, batched commit logs and keeps instances
    #: cached in memory, eliminating per-event history writes, full-history
    #: reads, and replay re-execution.  Toggling this on shows what the
    #: paper's observed durable overheads would become under that design.
    netherite_mode: bool = False

    # -- premium (elastic) plan ------------------------------------------------------
    #: Pre-warmed instances the premium plan keeps alive around the clock.
    premium_min_instances: int = 2
    #: Hourly price of one premium EP1 instance (2021 price sheet).
    premium_instance_hourly_price: float = 0.173

    # -- billing (2021 public price sheet) -------------------------------------------
    gb_s_price: float = 1.6e-5             # Functions compute, $/GB-s
    execution_price: float = 2.0e-7        # $0.20 per 1M executions
    storage_transaction_price: float = 4.0e-8   # $0.0004 per 10K transactions
    billing_granularity_s: float = 0.001   # ms-granularity GB-s metering
    min_billed_execution_s: float = 0.100  # 100 ms minimum per execution

    #: Collect telemetry spans (see :attr:`AWSCalibration.telemetry_spans`).
    telemetry_spans: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Reject nonsensical overload-protection settings.

        Mirrors :meth:`AWSCalibration.validate`; the optional bounds are
        checked only when set (``None`` means disabled, the platform
        default).
        """
        if not self.max_instances > 0:
            raise ValueError("max_instances must be positive")
        if (self.queue_depth_limit is not None
                and not self.queue_depth_limit > 0):
            raise ValueError(
                "queue_depth_limit must be positive when set "
                "(use None to leave the queues unbounded)")
        if (self.shed_deadline_s is not None
                and not self.shed_deadline_s > 0):
            raise ValueError(
                "shed_deadline_s must be positive when set "
                "(use None to disable load shedding)")


def default_aws_calibration() -> AWSCalibration:
    """A fresh AWS calibration with the documented defaults."""
    return AWSCalibration()


def default_azure_calibration() -> AzureCalibration:
    """A fresh Azure calibration with the documented defaults."""
    return AzureCalibration()
