"""Synthetic video: frame generation, chunking and merging.

Stands in for the paper's 100 MB Sintel clip (§IV-A).  A
:class:`SyntheticVideo` is a deterministic sequence of grayscale frames
with "faces" (bright two-eyes-and-mouth patterns) planted at known
positions, so the detector downstream has ground truth to be tested
against.  Frames are generated lazily from the seed — a chunk's payload
travels as ``(video params, frame range)``, whose *declared* size models
the real encoded bytes, exactly like the paper's chunks that must fit the
platform payload limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.storage.payload import KB, MB


@dataclass(frozen=True)
class PlantedFace:
    """Ground truth: one face at (row, col) in a given frame."""

    frame_index: int
    row: int
    col: int
    size: int


class SyntheticVideo:
    """A deterministic synthetic video with planted faces.

    >>> video = SyntheticVideo(n_frames=10, seed=1)
    >>> video.frame(0).shape
    (72, 128)
    """

    def __init__(self, n_frames: int = 240, height: int = 72,
                 width: int = 128, seed: int = 0,
                 faces_per_frame: float = 1.0,
                 bytes_per_frame: Optional[int] = None):
        if n_frames <= 0:
            raise ValueError("n_frames must be positive")
        if height < 24 or width < 24:
            raise ValueError("frames must be at least 24x24")
        self.n_frames = n_frames
        self.height = height
        self.width = width
        self.seed = seed
        self.faces_per_frame = faces_per_frame
        #: modeled encoded size per frame (raw grayscale by default)
        self.bytes_per_frame = bytes_per_frame or (height * width)
        self._ground_truth: List[PlantedFace] = []
        #: planted faces per frame index, each list in ground-truth order
        self._faces_by_frame: List[List[PlantedFace]] = []
        self._plant_faces()

    @property
    def total_bytes(self) -> int:
        """Modeled size of the encoded video."""
        return self.n_frames * self.bytes_per_frame

    @property
    def ground_truth(self) -> List[PlantedFace]:
        return list(self._ground_truth)

    def faces_in_range(self, start: int, stop: int) -> List[PlantedFace]:
        """Planted faces within frames ``[start, stop)``."""
        return [face
                for faces in self._faces_by_frame[max(start, 0):max(stop, 0)]
                for face in faces]

    def _plant_faces(self) -> None:
        rng = np.random.default_rng(self.seed)
        for frame_index in range(self.n_frames):
            count = rng.poisson(self.faces_per_frame)
            faces = []
            for _ in range(count):
                size = int(rng.integers(16, 25))
                row = int(rng.integers(0, self.height - size))
                col = int(rng.integers(0, self.width - size))
                faces.append(PlantedFace(frame_index, row, col, size))
            self._faces_by_frame.append(faces)
            self._ground_truth.extend(faces)

    def frame(self, index: int) -> np.ndarray:
        """Render frame ``index`` (background noise + planted faces)."""
        if not 0 <= index < self.n_frames:
            raise IndexError(f"frame {index} out of range")
        rng = np.random.default_rng((self.seed, index))
        frame = rng.normal(loc=0.25, scale=0.05,
                           size=(self.height, self.width))
        for face in self._faces_by_frame[index]:
            _draw_face(frame, face)
        return np.clip(frame, 0.0, 1.0)

    def frames(self, start: int, stop: int):
        """Iterate frames in ``[start, stop)``."""
        for index in range(start, min(stop, self.n_frames)):
            yield index, self.frame(index)


def _draw_face(frame: np.ndarray, face: PlantedFace) -> None:
    """Draw a bright face-like pattern: oval + dark eyes + dark mouth."""
    size = face.size
    patch = frame[face.row:face.row + size, face.col:face.col + size]
    rows, cols = np.mgrid[0:size, 0:size]
    center = (size - 1) / 2.0
    oval = ((rows - center) ** 2 + (cols - center) ** 2) <= (size / 2.0) ** 2
    patch[oval] = 0.85
    eye = max(1, size // 8)
    eye_row = size // 3
    for eye_col in (size // 3, 2 * size // 3):
        patch[eye_row - eye // 2:eye_row + eye // 2 + 1,
              eye_col - eye // 2:eye_col + eye // 2 + 1] = 0.15
    mouth_row = 2 * size // 3
    patch[mouth_row:mouth_row + max(1, eye // 2) + 1,
          size // 3:2 * size // 3] = 0.2


@dataclass
class VideoChunk:
    """A contiguous frame range — the unit of parallel work.

    ``payload_size`` models the encoded bytes of this range, which is
    what the platform payload limits apply to.
    """

    video: SyntheticVideo
    index: int
    start_frame: int
    stop_frame: int

    @property
    def n_frames(self) -> int:
        return self.stop_frame - self.start_frame

    @property
    def payload_size(self) -> int:
        return 64 + self.n_frames * self.video.bytes_per_frame


@dataclass
class MergedResult:
    """Output of the merge step: all detections in frame order."""

    n_chunks: int
    detections: List[Tuple[int, int, int]]   # (frame, row, col)
    payload_size: int = 0

    def __post_init__(self):
        if not self.payload_size:
            self.payload_size = 64 + 24 * len(self.detections)


def chunk_video(video: SyntheticVideo, n_chunks: int,
                max_chunk_bytes: Optional[int] = None) -> List[VideoChunk]:
    """Split into ``n_chunks`` contiguous chunks (the paper's first step).

    If ``max_chunk_bytes`` is given (the platform payload limit), the
    chunk count is raised as needed so every chunk fits — the paper: "the
    size of each chunk depends on the underlying payload size limit of
    each platform".
    """
    if n_chunks <= 0:
        raise ValueError("n_chunks must be positive")
    n_chunks = min(n_chunks, video.n_frames)
    if max_chunk_bytes is not None:
        frames_per_chunk_cap = max(
            1, (max_chunk_bytes - 64) // video.bytes_per_frame)
        min_chunks = -(-video.n_frames // frames_per_chunk_cap)
        n_chunks = max(n_chunks, min_chunks)
        n_chunks = min(n_chunks, video.n_frames)
    boundaries = np.linspace(0, video.n_frames, n_chunks + 1).astype(int)
    chunks = []
    for index in range(n_chunks):
        start, stop = int(boundaries[index]), int(boundaries[index + 1])
        if start == stop:
            continue
        chunks.append(VideoChunk(video=video, index=index,
                                 start_frame=start, stop_frame=stop))
    return chunks


def merge_chunks(
        chunk_detections: Sequence[Tuple[int, List[Tuple[int, int, int]]]]
) -> MergedResult:
    """The paper's final step: aggregate worker outputs in frame order."""
    ordered = sorted(chunk_detections, key=lambda item: item[0])
    detections: List[Tuple[int, int, int]] = []
    for _, found in ordered:
        detections.extend(found)
    detections.sort()
    return MergedResult(n_chunks=len(ordered), detections=detections)
