"""Video-processing deployments (paper §III-B, Figure 5).

Three steps — split, parallel face detection, merge — implemented as:

* ``AWS-Lambda`` / ``Az-Func``: one function does everything serially;
* ``AWS-Step``: a state machine whose Map state fans the chunks out;
* ``Az-Dorch``: a durable orchestrator fanning out with ``task_all``.

Chunk *references* (frame ranges) travel inline; chunk *bytes* and the
1 MB detection model are fetched from blob storage by each worker, as the
paper describes ("the model ... is fetched by each worker from the remote
storage").
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.azure import OrchestratorSpec
from repro.azure.app import TRIGGER_HTTP
from repro.core.deployments.base import Deployment, RunResult
from repro.core.stage_models import VIDEO_DETECT_S_PER_MB, video_work_models
from repro.core.testbed import Testbed
from repro.platforms.base import FunctionSpec
from repro.storage.payload import KB, MB
from repro.workloads.video import (
    DetectionModel,
    FaceDetector,
    SyntheticVideo,
    VideoPipeline,
    chunk_video,
    merge_chunks,
)


class VideoWorkload:
    """Shared video artifacts: the clip, the model, real detections."""

    def __init__(self, n_workers: int = 20, seed: int = 0,
                 n_frames: int = 2000, bytes_per_frame: int = 50 * KB,
                 detect_frames_per_chunk: int = 2):
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self.n_workers = n_workers
        self.seed = seed
        #: 2000 frames × 50 KB = ~100 MB, the paper's Sintel clip size.
        self.video = SyntheticVideo(
            n_frames=n_frames, height=72, width=128, seed=seed,
            faces_per_frame=0.6, bytes_per_frame=bytes_per_frame)
        self.model = DetectionModel()
        self.pipeline = VideoPipeline(self.video, self.model)
        #: how many real frames each chunk detection renders (a sample —
        #: rendering all 2000 frames per run would swamp the campaigns)
        self.detect_frames_per_chunk = detect_frames_per_chunk

    @property
    def total_mb(self) -> float:
        return self.video.total_bytes / MB

    def chunks(self, n_workers: Optional[int] = None,
               max_chunk_bytes: Optional[int] = None):
        return chunk_video(self.video, n_workers or self.n_workers,
                           max_chunk_bytes=max_chunk_bytes)

    def detect_sample(self, start_frame: int) -> List[tuple]:
        """Real detection on a small sample of a chunk's frames."""
        stop = min(start_frame + self.detect_frames_per_chunk,
                   self.video.n_frames)
        detector = FaceDetector(self.model)
        detections: List[tuple] = []
        for index in range(start_frame, stop):
            for row, col in detector.detect_frame(self.video.frame(index)):
                detections.append((index, row, col))
        return detections


_WORKLOADS: Dict[tuple, VideoWorkload] = {}


def video_workload(n_workers: int = 20, seed: int = 0,
                   **kwargs) -> VideoWorkload:
    """Process-wide cache of video workloads."""
    key = (n_workers, seed, tuple(sorted(kwargs.items())))
    if key not in _WORKLOADS:
        _WORKLOADS[key] = VideoWorkload(n_workers=n_workers, seed=seed,
                                        **kwargs)
    return _WORKLOADS[key]


#: Blob keys shared by all video deployments.
VIDEO_KEY = "videos/input"
MODEL_KEY = "models/face-detect"


def make_split_handler(workload: VideoWorkload,
                       max_chunk_bytes: Optional[int] = None):
    """Step 1: fetch the video, cut it into chunks, store chunk bytes.

    ``max_chunk_bytes`` raises the chunk count past ``n_workers`` when a
    platform cannot digest ``total / n_workers`` bytes in one invocation
    (payload or execution-time limits); see :func:`chunk_video`.
    """
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(VIDEO_KEY)
        n_workers = event["n_workers"]
        chunks = workload.chunks(n_workers, max_chunk_bytes)
        yield from ctx.work("split", units=workload.total_mb)
        chunk_refs = []
        for chunk in chunks:
            key = f"video-runs/{event['run_id']}/chunks/{chunk.index}"
            yield from ctx.blob.put(key, {"range": (chunk.start_frame,
                                                    chunk.stop_frame)},
                                    size=chunk.payload_size)
            chunk_refs.append({
                "run_id": event["run_id"], "chunk_key": key,
                "index": chunk.index, "start": chunk.start_frame,
                "stop": chunk.stop_frame,
                "chunk_bytes": chunk.payload_size})
        return {"run_id": event["run_id"], "chunks": chunk_refs}
    return handler


def make_detect_handler(workload: VideoWorkload):
    """Step 2 (per worker): fetch model + chunk, detect faces."""
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(MODEL_KEY)        # 1 MB model per worker
        yield from ctx.blob.get(event["chunk_key"])
        detections = workload.detect_sample(event["start"])  # real kernel
        yield from ctx.work("detect", units=event["chunk_bytes"] / MB)
        return {"index": event["index"],
                "n_detections": len(detections),
                "detections": detections[:50]}
    return handler


def make_merge_handler(workload: VideoWorkload):
    """Step 3: aggregate worker outputs into the final result."""
    def handler(ctx, event) -> Generator:
        results = event["results"]
        yield from ctx.work("merge", units=len(results))
        merged = merge_chunks(
            [(result["index"], result["detections"])
             for result in results])
        output_key = f"video-runs/{event['run_id']}/result"
        yield from ctx.blob.put(output_key, merged,
                                size=workload.video.total_bytes)
        return {"run_id": event["run_id"], "n_chunks": merged.n_chunks,
                "n_detections": sum(result["n_detections"]
                                    for result in results)}
    return handler


def make_video_monolith_handler(workload: VideoWorkload):
    """All three steps inside one function."""
    def handler(ctx, event) -> Generator:
        yield from ctx.blob.get(VIDEO_KEY)
        yield from ctx.blob.get(MODEL_KEY)
        chunks = workload.chunks(event["n_workers"])
        yield from ctx.work("split", units=workload.total_mb)
        results = []
        for chunk in chunks:
            detections = workload.detect_sample(chunk.start_frame)
            yield from ctx.work("detect",
                                units=chunk.payload_size / MB)
            results.append((chunk.index, detections))
        yield from ctx.work("merge", units=len(chunks))
        merged = merge_chunks(results)
        output_key = f"video-runs/{event['run_id']}/result"
        yield from ctx.blob.put(output_key, merged,
                                size=workload.video.total_bytes)
        return {"run_id": event["run_id"], "n_chunks": merged.n_chunks}
    return handler


class AWSLambdaVideo(Deployment):
    """Table II 'AWS-Lambda' video: one Lambda, serial detection."""

    name = "AWS-Lambda"
    platform = "aws"
    stateful = False
    description = "One stateless Lambda function."
    function_count = 1
    code_size_mb = 70.8

    def __init__(self, testbed: Testbed, workload: VideoWorkload):
        super().__init__(testbed)
        self.workload = workload

    def setup(self) -> Generator:
        self.testbed.lambdas.register(FunctionSpec(
            name="video-monolith",
            handler=make_video_monolith_handler(self.workload),
            memory_mb=2048, timeout_s=900.0,
            work_models=video_work_models()))
        yield from _seed_video_blobs(self.testbed.aws.blob, self.workload)

    def invoke(self, n_workers: Optional[int] = None) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        result = yield from self.testbed.lambdas.invoke(
            "video-monolith",
            {"run_id": run_id, "n_workers": 1})
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=result.value,
            cold_start_delay=result.cold_start_duration or None,
            execution_time=result.duration)


class AWSStepVideo(Deployment):
    """Table II 'AWS-Step' video: Map-state fan-out (Figure 5)."""

    name = "AWS-Step"
    platform = "aws"
    stateful = True
    description = ("Workflow implementation using AWS Step Functions "
                   "with a Map state for dynamic parallelism.")
    function_count = 3
    code_size_mb = 214.8

    machine_name = "video-processing"

    def __init__(self, testbed: Testbed, workload: VideoWorkload):
        super().__init__(testbed)
        self.workload = workload

    def setup(self) -> Generator:
        lambdas = self.testbed.lambdas
        models = video_work_models()
        for name, handler in [
                ("video-split", make_split_handler(self.workload)),
                ("video-detect", make_detect_handler(self.workload)),
                ("video-merge", make_merge_handler(self.workload))]:
            lambdas.register(FunctionSpec(
                name=name, handler=handler, memory_mb=2048,
                timeout_s=900.0, work_models=models))
        self.testbed.stepfunctions.create_state_machine(self.machine_name, {
            "Comment": "Video processing (paper Figure 5)",
            "StartAt": "Split",
            "States": {
                "Split": {"Type": "Task", "Resource": "video-split",
                          "Next": "DetectFaces"},
                "DetectFaces": {
                    "Type": "Map", "ItemsPath": "$.chunks",
                    "ResultPath": "$.results",
                    "Iterator": {
                        "StartAt": "Detect",
                        "States": {"Detect": {"Type": "Task",
                                              "Resource": "video-detect",
                                              "End": True}},
                    },
                    "Next": "Merge"},
                "Merge": {"Type": "Task", "Resource": "video-merge",
                          "Parameters": {"run_id.$": "$.run_id",
                                         "results.$": "$.results"},
                          "End": True},
            },
        })
        yield from _seed_video_blobs(self.testbed.aws.blob, self.workload)

    def invoke(self, n_workers: Optional[int] = None) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.stepfunctions.start_execution(
            self.machine_name,
            {"run_id": run_id,
             "n_workers": n_workers or self.workload.n_workers})
        if record.status != "SUCCEEDED":
            raise RuntimeError(f"AWS-Step video failed: {record.error}")
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output)


class AzureFuncVideo(Deployment):
    """Table II 'Az-Func' video: one Azure function, serial detection."""

    name = "Az-Func"
    platform = "azure"
    stateful = False
    description = "One stateless Azure function."
    function_count = 1
    code_size_mb = 204.0

    def __init__(self, testbed: Testbed, workload: VideoWorkload):
        super().__init__(testbed)
        self.workload = workload

    def setup(self) -> Generator:
        self.testbed.app.register(FunctionSpec(
            name="az-video-monolith",
            handler=make_video_monolith_handler(self.workload),
            memory_mb=1536, timeout_s=1800.0, measured_memory_mb=1024,
            work_models=video_work_models()))
        yield from _seed_video_blobs(self.testbed.azure.blob, self.workload)

    def invoke(self, n_workers: Optional[int] = None) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        result = yield from self.testbed.app.invoke(
            "az-video-monolith", {"run_id": run_id, "n_workers": 1},
            trigger=TRIGGER_HTTP)
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=result.value,
            cold_start_delay=(result.queue_wait if result.cold_start
                              else None),
            queue_time=result.queue_wait, execution_time=result.duration)


class AzureDorchVideo(Deployment):
    """Table II 'Az-Dorch' video: durable fan-out with task_all.

    "Azure durable orchestrator library allows dynamic parallel workers
    to be implemented with a single line of code" (§V-B) — the
    ``task_all`` below — but the workers then fight the scale controller
    for instances.
    """

    name = "Az-Dorch"
    platform = "azure"
    stateful = True
    description = ("Workflow implemented using Azure Durable orchestrators "
                   "with a parallel activity fan-out.")
    function_count = 3
    code_size_mb = 219.0

    orchestrator_name = "video-dorch"

    def __init__(self, testbed: Testbed, workload: VideoWorkload):
        super().__init__(testbed)
        self.workload = workload

    def setup(self) -> Generator:
        app = self.testbed.app
        models = video_work_models()
        for name, handler in [
                ("az-video-split", make_split_handler(self.workload)),
                ("az-video-detect", make_detect_handler(self.workload)),
                ("az-video-merge", make_merge_handler(self.workload))]:
            if name not in app.function_names:
                app.register(FunctionSpec(
                    name=name, handler=handler, memory_mb=1536,
                    timeout_s=1800.0, measured_memory_mb=1024,
                    work_models=models))

        def orchestrator(context):
            meta = context.input
            split = yield context.call_activity("az-video-split", meta)
            tasks = [context.call_activity("az-video-detect", chunk)
                     for chunk in split["chunks"]]
            results = yield context.task_all(tasks)
            merged = yield context.call_activity(
                "az-video-merge",
                {"run_id": meta["run_id"],
                 "results": [{"index": result["index"],
                              "n_detections": result["n_detections"],
                              "detections": []}
                             for result in results]})
            return merged

        self.testbed.durable.register_orchestrator(OrchestratorSpec(
            self.orchestrator_name, orchestrator, measured_memory_mb=256))
        yield from _seed_video_blobs(self.testbed.azure.blob, self.workload)

    def invoke(self, n_workers: Optional[int] = None) -> Generator:
        run_id = self.next_run_id()
        client = self.testbed.durable.client
        instance_id = yield from client.start_new(
            self.orchestrator_name,
            {"run_id": f"video-{run_id}",
             "n_workers": n_workers or self.workload.n_workers})
        value = yield from client.wait_for_completion(instance_id)
        instance = client.get_status(instance_id)
        return RunResult(
            deployment=self.name, started_at=instance.running_at,
            finished_at=instance.completed_at, value=value,
            cold_start_delay=instance.cold_start_delay)


class GCPWorkflowsVideo(Deployment):
    """'GCP-Flows' video: a parallel ``for`` step fans the chunks out.

    The step dialect's dynamic-parallelism primitive — the analogue of
    AWS's Map state and Azure's ``task_all``.  Worker outputs are
    stripped to summaries inside the loop body (like the Azure variant)
    so the merge call stays under the 64 KB step payload limit.

    gen1 caps execution at 540 s (``GCPCalibration.time_limit_s``), far
    below Lambda's 900 s and Azure's 1800 s, so at small fan-outs a
    per-worker chunk of the 100 MB clip cannot finish in one invocation.
    A real GCP port must split finer; the split function is therefore
    registered with a chunk-byte cap derived from the time limit, and
    the ``for`` step simply runs the extra chunks.
    """

    name = "GCP-Flows"
    platform = "gcp"
    stateful = True
    description = ("Workflow implementation using GCP Workflows with a "
                   "parallel for step for dynamic parallelism.")
    function_count = 3
    code_size_mb = 214.8

    workflow_name = "video-processing"

    def __init__(self, testbed: Testbed, workload: VideoWorkload):
        super().__init__(testbed)
        self.workload = workload

    def setup(self) -> Generator:
        functions = self.testbed.cloudfunctions
        models = video_work_models()
        calibration = self.testbed.calibration("gcp")
        # Largest chunk whose expected detection time fits the gen1
        # execution cap with headroom for fetches and jitter.
        budget_s = 0.8 * calibration.time_limit_s
        max_chunk_bytes = int(max(
            1.0, (budget_s - 0.5) / VIDEO_DETECT_S_PER_MB) * MB)
        for name, handler in [
                ("gcp-video-split", make_split_handler(
                    self.workload, max_chunk_bytes=max_chunk_bytes)),
                ("gcp-video-detect", make_detect_handler(self.workload)),
                ("gcp-video-merge", make_merge_handler(self.workload))]:
            functions.register(FunctionSpec(
                name=name, handler=handler, memory_mb=2048,
                timeout_s=900.0, work_models=models))
        self.testbed.workflows.create_workflow(self.workflow_name, [
            {"name": "Split", "call": "gcp-video-split",
             "args": "$.data", "result": "data"},
            {"name": "DetectFaces", "for": {
                "value": "chunk", "in": "$.data.chunks",
                "steps": [
                    {"name": "Detect", "call": "gcp-video-detect",
                     "args": "$.chunk", "result": "data"},
                    {"name": "Strip", "assign": [
                        ["data", {"index": "$.data.index",
                                  "n_detections": "$.data.n_detections",
                                  "detections": []}]]},
                ],
                "result": "results"}},
            {"name": "Merge", "call": "gcp-video-merge",
             "args": {"run_id": "$.data.run_id",
                      "results": "$.results"},
             "result": "data"},
            {"name": "Done", "return": "$.data"},
        ])
        yield from _seed_video_blobs(self.testbed.gcp.blob, self.workload)

    def invoke(self, n_workers: Optional[int] = None) -> Generator:
        run_id = self.next_run_id()
        started = self.testbed.now
        record = yield from self.testbed.workflows.execute(
            self.workflow_name,
            {"run_id": run_id,
             "n_workers": n_workers or self.workload.n_workers})
        if record.status != "SUCCEEDED":
            raise RuntimeError(f"GCP-Flows video failed: {record.error}")
        return RunResult(
            deployment=self.name, started_at=started,
            finished_at=self.testbed.now, value=record.output)


def _seed_video_blobs(blob, workload: VideoWorkload) -> Generator:
    if not blob.exists(VIDEO_KEY):
        yield from blob.put(VIDEO_KEY, {"video": workload.video.seed},
                            size=workload.video.total_bytes)
    if not blob.exists(MODEL_KEY):
        yield from blob.put(MODEL_KEY, {"model": workload.model.name},
                            size=workload.model.payload_size)
    return None


def build_video_deployments(testbed: Testbed, n_workers: int = 20,
                            seed: int = 0) -> Dict[str, Deployment]:
    """The paper's four video variants (Fig 12/13/15) plus GCP-Flows.

    Variants whose platform the testbed did not build (``platforms=``
    restriction) are omitted.
    """
    workload = video_workload(n_workers, seed)
    deployments = {
        "AWS-Lambda": AWSLambdaVideo,
        "AWS-Step": AWSStepVideo,
        "Az-Func": AzureFuncVideo,
        "Az-Dorch": AzureDorchVideo,
        "GCP-Flows": GCPWorkflowsVideo,
    }
    return {name: cls(testbed, workload)
            for name, cls in deployments.items()
            if cls.platform in testbed.platform_names}
