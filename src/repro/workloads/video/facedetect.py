"""Face detection: an integral-image sliding-window classifier.

The OpenCV/deep-model stand-in (§IV-A: "a face detection algorithm using
a pre-trained deep learning model.  The model size is 1 MB which is
fetched by each worker from the remote storage").  The detector uses
Haar-like features over an integral image — a real (if small) computer
vision kernel whose recall/precision on the synthetic frames is testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.storage.payload import MB
from repro.workloads.video.video import SyntheticVideo, VideoChunk


@dataclass
class DetectionModel:
    """The 'pre-trained model' workers fetch from remote storage.

    Thresholds for the Haar-like cascade below; ``payload_size`` is the
    paper's 1 MB.
    """

    window_sizes: Tuple[int, ...] = (16, 20, 24)
    stride: int = 4
    brightness_threshold: float = 0.55
    eye_contrast_threshold: float = 0.18
    payload_size: int = 1 * MB

    @property
    def name(self) -> str:
        return "haar-face-v1"


def integral_image(frame: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top/left border."""
    table = np.zeros((frame.shape[0] + 1, frame.shape[1] + 1))
    table[1:, 1:] = frame.cumsum(axis=0).cumsum(axis=1)
    return table


def box_sums(table: np.ndarray, tops: range, lefts: range, height: int,
             width: int) -> np.ndarray:
    """Sums of the frame regions ``[top:top+height, left:left+width]`` for
    every ``top`` in ``tops`` and ``left`` in ``lefts``, as a
    ``(len(tops), len(lefts))`` array.

    Each sum is ``((bottom_right - top_right) - bottom_left) + top_left``
    in float64, the order of a scalar summed-area lookup, so every entry
    equals the scalar sum bit for bit.  The grids are taken as strided
    views of ``table``, not copies.
    """
    upper = table[tops.start:tops.stop:tops.step]
    lower = table[tops.start + height:tops.stop + height:tops.step]
    left = slice(lefts.start, lefts.stop, lefts.step)
    right = slice(lefts.start + width, lefts.stop + width, lefts.step)
    return lower[:, right] - upper[:, right] - lower[:, left] + upper[:, left]


class FaceDetector:
    """Sliding-window detector using two Haar-like tests.

    A window is a face when (1) it is brighter than its surroundings and
    (2) the eye band is darker than the cheek band — matching the pattern
    :func:`~repro.workloads.video.video._draw_face` plants.
    """

    def __init__(self, model: DetectionModel):
        self.model = model

    def detect_frame(self, frame: np.ndarray) -> List[Tuple[int, int]]:
        """Detected (row, col) face positions in one frame.

        Each window size is tested over its whole stride grid at once;
        hits are collected top row first, left to right.
        """
        table = integral_image(frame)
        height, width = frame.shape
        model = self.model
        hits: List[Tuple[int, int, int]] = []
        for window in model.window_sizes:
            if window > min(height, width):
                continue
            stride = model.stride
            tops = range(0, height - window + 1, stride)
            lefts = range(0, width - window + 1, stride)
            band = max(2, window // 5)
            eye_tops = range(window // 4, tops.stop + window // 4, stride)
            cheek_tops = range(window // 2, tops.stop + window // 2, stride)
            mean = box_sums(table, tops, lefts, window, window) / float(
                window * window)
            eye_mean = box_sums(table, eye_tops, lefts, band,
                                window) / (band * window)
            cheek_mean = box_sums(table, cheek_tops, lefts, band,
                                  window) / (band * window)
            face = ((mean >= model.brightness_threshold)
                    & (cheek_mean - eye_mean >= model.eye_contrast_threshold))
            for row, col in zip(*np.nonzero(face)):
                hits.append((tops[row], lefts[col], window))
        return _suppress_overlaps(hits)

    def detect_chunk(self, chunk: VideoChunk) -> List[Tuple[int, int, int]]:
        """All (frame, row, col) detections in a chunk."""
        detections: List[Tuple[int, int, int]] = []
        for frame_index, frame in chunk.video.frames(chunk.start_frame,
                                                     chunk.stop_frame):
            for row, col in self.detect_frame(frame):
                detections.append((frame_index, row, col))
        return detections


def _suppress_overlaps(
        hits: List[Tuple[int, int, int]]) -> List[Tuple[int, int]]:
    """Greedy non-maximum suppression: keep the first window per region."""
    kept: List[Tuple[int, int, int]] = []
    for top, left, window in sorted(hits, key=lambda hit: -hit[2]):
        center = (top + window / 2.0, left + window / 2.0)
        overlaps = any(
            abs(center[0] - (k_top + k_window / 2.0)) < k_window * 0.6
            and abs(center[1] - (k_left + k_window / 2.0)) < k_window * 0.6
            for k_top, k_left, k_window in kept)
        if not overlaps:
            kept.append((top, left, window))
    return [(top, left) for top, left, _ in kept]


#: Cache of real per-chunk detections, keyed by the chunk identity — the
#: measurement campaigns re-run identical chunks hundreds of times.
_DETECTION_CACHE: dict = {}


def detect_faces_in_chunk(chunk: VideoChunk,
                          model: DetectionModel) -> List[Tuple[int, int, int]]:
    """Memoized real detection on a chunk."""
    key = (chunk.video.seed, chunk.video.n_frames, chunk.video.height,
           chunk.video.width, chunk.start_frame, chunk.stop_frame,
           model.name)
    if key not in _DETECTION_CACHE:
        _DETECTION_CACHE[key] = FaceDetector(model).detect_chunk(chunk)
    return _DETECTION_CACHE[key]
