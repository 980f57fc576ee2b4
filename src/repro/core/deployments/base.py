"""Deployment abstraction: one Table II row, runnable on a testbed."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.testbed import Testbed


@dataclass
class RunResult:
    """One end-to-end run of a deployment."""

    deployment: str
    started_at: float
    finished_at: float
    value: Any = None
    #: trigger-to-start delay, where the implementation exposes one
    cold_start_delay: Optional[float] = None
    #: breakdown components (Fig 8 / Fig 13), when the deployment reports them
    queue_time: float = 0.0
    execution_time: float = 0.0

    @property
    def latency(self) -> float:
        """End-to-end latency as the paper defines it per platform."""
        return self.finished_at - self.started_at


class Deployment:
    """One implementation variant of one workload.

    Subclasses register their functions in ``setup()`` (a generator, since
    seeding blob data takes simulated time) and implement ``invoke()``.
    """

    #: Table II metadata — overridden per subclass.
    name: str = ""
    platform: str = ""           # a registered backend name: 'aws' | 'azure' | 'gcp'
    stateful: bool = False
    description: str = ""
    function_count: int = 0
    code_size_mb: float = 0.0    # as reported by the paper (Table II)

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self._ready = False

    # -- lifecycle --------------------------------------------------------------

    def deploy(self) -> None:
        """Register functions and seed storage (runs simulated time)."""
        if self._ready:
            return
        self.testbed.run(self.setup())
        self._ready = True

    def setup(self) -> Generator:
        """Override: register functions, upload artifacts.  A generator."""
        raise NotImplementedError
        yield  # pragma: no cover

    def invoke(self) -> Generator:
        """Override: one end-to-end run; returns a :class:`RunResult`."""
        raise NotImplementedError
        yield  # pragma: no cover

    # -- helpers ------------------------------------------------------------------

    def next_run_id(self) -> int:
        return next(self.testbed.run_ids)

    @property
    def stack(self):
        """This deployment's platform meters."""
        return self.testbed.stack(self.platform)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"platform={self.platform}, stateful={self.stateful})")
