"""Per-layer tracing for the laboratory benchmark, from the outside.

:func:`install` wraps public entry points of each ``repro`` layer and
:meth:`Probes.uninstall` restores every original, so tracing changes no
file under ``src/`` and an untraced run executes exactly the shipped
code.  Each wrapper records a span on a layer stack: a span's *self*
time is its duration minus the spans nested inside it, so the self times
of all layers add up to the wall time spent inside the outermost probes.

Generator-returning calls (process bodies, service calls, storage
operations) are timed per resume: the wrapper hands back a
:class:`TracedGenerator` that forwards ``send``, ``throw`` and ``close``
and charges each resume to its layer.  ``Environment.process`` wraps
every process generator and charges it to the layer of the module that
defines it, which is how task-hub pumps and platform services are
attributed.  Whatever remains inside ``Environment.run`` after all
nested spans is the kernel's own dispatch cost (``sim.self_s``).

Counts come from public state at the probe boundaries: the dispatch
sequence and clock of each environment around ``run``, ``len(table)``
when ``read_partition`` is called, ``len(telemetry)`` around span
creation and at each ``find``.  Forked worker processes drop the probes
(``os.register_at_fork``), so supervised workers run untraced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: module prefix -> layer, most specific prefix first
_MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core.deployments", "deployments"),
    ("repro.core.audit", "audit"),
    ("repro.core.mitigation", "mitigation"),
    ("repro.core.persistence", "persistence"),
    ("repro.core.cache", "cache"),
    ("repro.core.checkpoint", "checkpoint"),
    ("repro.core.supervise", "supervise"),
    ("repro.core", "campaign"),
    ("repro.platforms.faults", "faults"),
    ("repro.platforms", "platforms"),
    ("repro.sim", "sim"),
    ("repro.aws", "aws"),
    ("repro.azure", "azure"),
    ("repro.gcp", "gcp"),
    ("repro.storage", "storage"),
    ("repro.telemetry", "telemetry"),
    ("repro.workloads", "workloads"),
)

#: every layer a traced run reports a self time for, in report order
LAYERS = ("sim", "aws", "azure", "gcp", "platforms", "deployments",
          "campaign", "storage", "telemetry", "workloads", "audit", "faults",
          "mitigation", "persistence", "cache", "checkpoint", "supervise")

#: every count a traced run reports (zero when its probe never fires)
COUNTS = ("sim.events", "sim.processes", "aws.calls", "azure.calls",
          "gcp.calls", "storage.table.partition_reads",
          "storage.table.rows_scanned", "storage.blob.ops",
          "storage.queue.ops", "storage.meter.records", "telemetry.spans",
          "telemetry.find_calls", "telemetry.find_scanned",
          "workloads.detect_frames", "audit.monitor_calls", "faults.calls",
          "mitigation.calls", "cache.hits", "cache.misses", "cache.bytes",
          "checkpoint.records")
#: every inclusive timer a traced run reports
TIMERS = ("sim.simulated_s", "audit.finalize_s", "persistence.encode_s",
          "persistence.decode_s", "cache.get_s", "cache.put_s",
          "checkpoint.record_s")

#: how an optional hook sees a call: ``after(probes, args, result)``
After = Callable[["Probes", tuple, Any], None]


def layer_of_module(module: str) -> str:
    """The benchmark layer a ``repro`` module belongs to."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "campaign"


class TracedGenerator:
    """A generator proxy that charges every resume to one layer."""

    __slots__ = ("_generator", "_layer", "_probes")

    def __init__(self, generator, layer: str, probes: "Probes"):
        self._generator = generator
        self._layer = layer
        self._probes = probes

    @property
    def __name__(self) -> str:
        return getattr(self._generator, "__name__", "generator")

    def __iter__(self):
        return self

    def __next__(self):
        return self._probes.span(self._layer, self._generator.send, None)

    def send(self, value):
        return self._probes.span(self._layer, self._generator.send, value)

    def throw(self, *args):
        return self._probes.span(self._layer, self._generator.throw, *args)

    def close(self):
        return self._probes.span(self._layer, self._generator.close)


class Probes:
    """Layer self times, inclusive timers and counts of one traced run."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(
            float, dict.fromkeys(LAYERS, 0.0))
        #: inclusive wall seconds of single operations (``cache.get_s``)
        self.timers: Dict[str, float] = defaultdict(
            float, dict.fromkeys(TIMERS, 0.0))
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        #: child time accumulated by each open span, innermost last
        self._children: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_by_code: Dict[Any, str] = {}

    # -- the layer stack ------------------------------------------------------

    def span(self, layer: str, function: Callable, *args, **kwargs):
        """Call ``function`` as one span of ``layer``."""
        children = self._children
        children.append(0.0)
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self.self_s[layer] += elapsed - children.pop()
            if children:
                children[-1] += elapsed

    def generator_layer(self, generator) -> str:
        """Layer of the module that defines ``generator``'s function."""
        code = generator.gi_code
        layer = self._layer_by_code.get(code)
        if layer is None:
            layer = layer_of_module(
                generator.gi_frame.f_globals.get("__name__", ""))
            self._layer_by_code[code] = layer
        return layer

    # -- wrappers -------------------------------------------------------------

    def _call_wrapper(self, original: Callable, layer: str,
                      count: Optional[str], timer: Optional[str],
                      after: Optional[After]) -> Callable:
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                probes.counts[count] += 1
            start = perf_counter()
            try:
                result = probes.span(layer, original, *args, **kwargs)
            finally:
                if timer is not None:
                    probes.timers[timer] += perf_counter() - start
            if after is not None:
                after(probes, args, result)
            return result

        return wrapper

    def _generator_wrapper(self, original: Callable, layer: str,
                           count: Optional[str],
                           before: Optional[Callable]) -> Callable:
        probes = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                probes.counts[count] += 1
            if before is not None:
                before(probes, args)
            return TracedGenerator(
                probes.span(layer, original, *args, **kwargs), layer, probes)

        return wrapper

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        """Replace ``owner.name`` until :meth:`uninstall`."""
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_call(self, owner: Any, name: str, layer: str,
                  count: Optional[str] = None, timer: Optional[str] = None,
                  after: Optional[After] = None) -> None:
        """Time a synchronous method as a span of ``layer``."""
        self.patch(owner, name, self._call_wrapper(
            owner.__dict__[name], layer, count, timer, after))

    def wrap_function(self, module: Any, name: str, layer: str,
                      timer: Optional[str] = None) -> None:
        """Time a module-level function as a span of ``layer``, in every
        loaded ``repro`` module that imported it by name."""
        original = getattr(module, name)
        replacement = self._call_wrapper(original, layer, None, timer, None)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self.patch(loaded, attribute, replacement)

    def wrap_generator_call(self, owner: Any, name: str, layer: str,
                            count: Optional[str] = None,
                            before: Optional[Callable] = None) -> None:
        """Charge every resume of the generators a method returns to
        ``layer``."""
        self.patch(owner, name, self._generator_wrapper(
            owner.__dict__[name], layer, count, before))

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


_active: List[Probes] = []


def uninstall() -> None:
    """Remove every installed probe set."""
    while _active:
        _active.pop().uninstall()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=uninstall)


def install() -> Probes:
    """Wrap every layer's entry points; returns the live :class:`Probes`.

    Call :func:`uninstall` to restore the originals before computing
    anything that must not be traced.
    """
    from repro.aws.lambda_service import LambdaService
    from repro.aws.stepfunctions import StepFunctionsService
    from repro.azure.app import FunctionAppService
    from repro.azure.durable.taskhub import DurableClient
    from repro.azure.queues import QueueChain
    from repro.core.deployments.base import Deployment
    from repro.core.deployments.video import VideoWorkload
    from repro.core.mitigation import MitigationEngine
    from repro.gcp.functions import CloudFunctionsService
    from repro.gcp.workflows import GCPWorkflowsService
    from repro.platforms.backend import registered_backends
    from repro.platforms.faults import FaultInjector
    from repro.sim.kernel import Environment
    from repro.storage.blob import BlobStore
    from repro.storage.meter import TransactionMeter
    from repro.storage.queue import CloudQueue
    from repro.storage.table import TableStore
    from repro.telemetry.spans import Telemetry
    from repro.workloads.video.facedetect import FaceDetector

    # ``repro.core`` exports a function named ``parallel``, which shadows
    # the submodule in ``import repro.core.parallel as ...``.
    audit, cache, checkpoint, parallel, persistence, supervise = (
        importlib.import_module(f"repro.core.{name}")
        for name in ("audit", "cache", "checkpoint", "parallel",
                     "persistence", "supervise"))

    probes = Probes()
    _active.append(probes)

    # -- kernel: dispatch is what remains inside run() ------------------------
    original_run = Environment.__dict__["run"]
    original_process = Environment.__dict__["process"]

    @functools.wraps(original_run)
    def run(env, *args, **kwargs):
        sequence, now = env._sequence, env.now
        try:
            return probes.span("sim", original_run, env, *args, **kwargs)
        finally:
            probes.counts["sim.events"] += env._sequence - sequence
            probes.timers["sim.simulated_s"] += env.now - now

    @functools.wraps(original_process)
    def process(env, generator):
        probes.counts["sim.processes"] += 1
        if not isinstance(generator, TracedGenerator):
            generator = TracedGenerator(
                generator, probes.generator_layer(generator), probes)
        return original_process(env, generator)

    probes.patch(Environment, "run", run)
    probes.patch(Environment, "process", process)

    # -- platforms: service calls and stack construction ----------------------
    for owner, name, layer in (
            (LambdaService, "invoke", "aws"),
            (StepFunctionsService, "start_execution", "aws"),
            (FunctionAppService, "invoke", "azure"),
            (DurableClient, "start_new", "azure"),
            (DurableClient, "wait_for_completion", "azure"),
            (QueueChain, "run", "azure"),
            (CloudFunctionsService, "invoke", "gcp"),
            (GCPWorkflowsService, "execute", "gcp")):
        probes.wrap_generator_call(owner, name, layer, count=f"{layer}.calls")
    for backend in registered_backends():
        if "build" in type(backend).__dict__:
            probes.wrap_call(type(backend), "build", backend.name)

    # -- deployments: every variant's setup() and invoke() --------------------
    variants = list(Deployment.__subclasses__())
    while variants:
        variant = variants.pop()
        variants.extend(variant.__subclasses__())
        for name in ("setup", "invoke"):
            if name in variant.__dict__:
                probes.wrap_generator_call(variant, name, "deployments")

    # -- storage --------------------------------------------------------------
    def partition_scan(probes, args):
        probes.counts["storage.table.partition_reads"] += 1
        probes.counts["storage.table.rows_scanned"] += len(args[0])

    for name in ("insert", "update", "read", "delete", "delete_partition"):
        probes.wrap_generator_call(TableStore, name, "storage")
    probes.wrap_generator_call(TableStore, "read_partition", "storage",
                               before=partition_scan)
    for name in ("put", "get", "delete", "list_prefix"):
        probes.wrap_generator_call(BlobStore, name, "storage",
                                   count="storage.blob.ops")
    for name in ("enqueue", "poll", "delete"):
        probes.wrap_generator_call(CloudQueue, name, "storage",
                                   count="storage.queue.ops")
    probes.wrap_generator_call(CloudQueue, "receive", "storage")
    probes.wrap_call(CloudQueue, "settle_idle_polls", "storage")
    probes.wrap_call(TransactionMeter, "record", "storage",
                     count="storage.meter.records")

    # -- telemetry ------------------------------------------------------------
    def counting_spans(original):
        @functools.wraps(original)
        def wrapper(telemetry, *args, **kwargs):
            before = len(telemetry)
            try:
                return probes.span("telemetry", original, telemetry,
                                   *args, **kwargs)
            finally:
                probes.counts["telemetry.spans"] += len(telemetry) - before
        return wrapper

    def find_scan(probes, args, result):
        probes.counts["telemetry.find_scanned"] += len(args[0])

    for name in ("start_span", "record"):
        probes.patch(Telemetry, name,
                     counting_spans(Telemetry.__dict__[name]))
    for name in ("end_span", "durations", "total_time", "children_of"):
        probes.wrap_call(Telemetry, name, "telemetry")
    probes.wrap_call(Telemetry, "find", "telemetry",
                     count="telemetry.find_calls", after=find_scan)

    # -- workload compute -----------------------------------------------------
    probes.wrap_call(VideoWorkload, "detect_sample", "workloads")
    probes.wrap_call(FaceDetector, "detect_frame", "workloads",
                     count="workloads.detect_frames")

    # -- audit, faults, mitigation --------------------------------------------
    probes.wrap_call(audit.InvariantAuditor, "__call__", "audit",
                     count="audit.monitor_calls")
    probes.wrap_call(audit.InvariantAuditor, "finalize", "audit",
                     timer="audit.finalize_s")
    for name in ("note_enqueue", "note_dequeue", "note_delete", "note_drop"):
        probes.wrap_call(audit._QueueRecord, name, "audit")

    original_wrap = FaultInjector.__dict__["wrap"]

    @functools.wraps(original_wrap)
    def wrap(injector, handler, name=None):
        # The wrapped handler keeps its own layer; the fault shim around
        # it is charged to ``faults``.
        handler_layer = layer_of_module(getattr(handler, "__module__", ""))

        @functools.wraps(handler)
        def traced_handler(*args, **kwargs):
            return TracedGenerator(handler(*args, **kwargs), handler_layer,
                                   probes)

        faulty = original_wrap(injector, traced_handler, name)

        @functools.wraps(faulty)
        def traced_faulty(*args, **kwargs):
            probes.counts["faults.calls"] += 1
            return TracedGenerator(faulty(*args, **kwargs), "faults", probes)

        return traced_faulty

    probes.patch(FaultInjector, "wrap", wrap)
    for name in ("draw_queue_faults", "draw_message_chaos", "in_outage",
                 "record_runtime"):
        probes.wrap_call(FaultInjector, name, "faults", count="faults.calls")
    probes.wrap_generator_call(MitigationEngine, "call", "mitigation",
                               count="mitigation.calls")

    # -- persistence, cache, journal, runners ---------------------------------
    def cache_lookup(probes, args, result):
        probes.counts["cache.hits" if result is not None
                      else "cache.misses"] += 1

    def cache_store(probes, args, path):
        probes.counts["cache.bytes"] += path.stat().st_size

    probes.wrap_function(persistence, "outcome_to_dict", "persistence",
                         timer="persistence.encode_s")
    probes.wrap_function(persistence, "outcome_from_dict", "persistence",
                         timer="persistence.decode_s")
    probes.wrap_function(persistence, "payload_checksum", "persistence")
    probes.wrap_function(parallel, "execute_spec", "campaign")
    probes.wrap_call(cache.ResultCache, "get", "cache", timer="cache.get_s",
                     after=cache_lookup)
    probes.wrap_call(cache.ResultCache, "put", "cache", timer="cache.put_s",
                     after=cache_store)
    probes.wrap_call(checkpoint.SweepJournal, "record", "checkpoint",
                     count="checkpoint.records", timer="checkpoint.record_s")
    for name in ("create_or_open", "completed"):
        probes.wrap_call(checkpoint.SweepJournal, name, "checkpoint")
    probes.wrap_call(parallel.ParallelRunner, "run", "campaign")
    probes.wrap_call(supervise.SupervisedRunner, "run", "supervise")
    return probes
