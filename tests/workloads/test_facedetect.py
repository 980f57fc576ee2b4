"""The vectorised face detector against the scalar sliding-window loop.

:func:`reference_detect_frame` is the per-window loop the detector used
before it was vectorised, kept here as the reference.  The vectorised
detector computes the same float64 operations in the same order, so the
hit lists must be identical, not merely close.
"""

from typing import List, Tuple

import numpy as np
import pytest

from repro.workloads.video import DetectionModel, FaceDetector, SyntheticVideo
from repro.workloads.video.facedetect import (
    _suppress_overlaps,
    box_sums,
    integral_image,
)


def box_sum(table: np.ndarray, top: int, left: int, height: int,
            width: int) -> float:
    """Sum of the frame region ``[top:top+height, left:left+width]``."""
    return float(table[top + height, left + width] - table[top, left + width]
                 - table[top + height, left] + table[top, left])


def reference_detect_frame(model: DetectionModel,
                           frame: np.ndarray) -> List[Tuple[int, int]]:
    """Detected (row, col) face positions, one window at a time."""
    table = integral_image(frame)
    height, width = frame.shape
    hits: List[Tuple[int, int, int]] = []
    for window in model.window_sizes:
        if window > min(height, width):
            continue
        area = float(window * window)
        for top in range(0, height - window + 1, model.stride):
            for left in range(0, width - window + 1, model.stride):
                mean = box_sum(table, top, left, window, window) / area
                if mean < model.brightness_threshold:
                    continue
                band = max(2, window // 5)
                eye_top = top + window // 4
                eye_mean = box_sum(table, eye_top, left, band,
                                   window) / (band * window)
                cheek_top = top + window // 2
                cheek_mean = box_sum(table, cheek_top, left, band,
                                     window) / (band * window)
                if cheek_mean - eye_mean >= model.eye_contrast_threshold:
                    hits.append((top, left, window))
    return _suppress_overlaps(hits)


def seeded_frames():
    """60 frames: full-size, 24×24 crops, and crops narrower than a window."""
    frames = []
    for seed in range(4):
        video = SyntheticVideo(n_frames=10, height=72, width=128, seed=seed,
                               faces_per_frame=1.5)
        for index in range(10):
            frame = video.frame(index)
            frames.append(frame)
            if index % 2 == 0:
                top, left = divmod(7 * index + seed, 40)
                frames.append(frame[top:top + 24, left:left + 24])
            else:
                frames.append(frame[index:index + 20, :30])
    return frames


FRAMES = seeded_frames()

MODELS = [
    DetectionModel(),
    DetectionModel(stride=3),
    DetectionModel(window_sizes=(16, 20, 24, 28), stride=1),
    DetectionModel(stride=5, brightness_threshold=0.3,
                   eye_contrast_threshold=0.05),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda model: (
    f"stride{model.stride}-windows{len(model.window_sizes)}"
    f"-bright{model.brightness_threshold}"))
def test_vectorised_detector_matches_scalar_loop(model):
    detector = FaceDetector(model)
    assert len(FRAMES) >= 50
    found = 0
    for frame in FRAMES:
        hits = detector.detect_frame(frame)
        assert hits == reference_detect_frame(model, frame)
        assert all(type(value) is int for hit in hits for value in hit)
        found += len(hits)
    assert found > 0


def test_frames_cover_windows_larger_than_the_frame():
    shapes = {frame.shape for frame in FRAMES}
    assert (24, 24) in shapes
    assert any(min(shape) < 24 for shape in shapes)


def test_box_sums_equal_scalar_lookups_bitwise():
    frame = FRAMES[0]
    table = integral_image(frame)
    tops, lefts = range(0, 50, 3), range(1, 100, 7)
    sums = box_sums(table, tops, lefts, 9, 13)
    assert sums.shape == (len(tops), len(lefts))
    for i, top in enumerate(tops):
        for j, left in enumerate(lefts):
            assert sums[i, j] == box_sum(table, top, left, 9, 13)


def test_thresholds_are_inclusive_like_the_scalar_loop():
    # A constant 0.5 frame puts every window mean exactly on the
    # brightness threshold and every eye/cheek contrast exactly at 0.
    model = DetectionModel(brightness_threshold=0.5,
                           eye_contrast_threshold=0.0)
    frame = np.full((40, 40), 0.5)
    hits = FaceDetector(model).detect_frame(frame)
    assert hits
    assert hits == reference_detect_frame(model, frame)
