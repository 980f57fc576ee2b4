"""Tests for the synthetic video, chunker and face detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.payload import KB
from repro.workloads.video import (
    DetectionModel,
    FaceDetector,
    SyntheticVideo,
    VideoPipeline,
    chunk_video,
    merge_chunks,
)


@pytest.fixture(scope="module")
def video():
    return SyntheticVideo(n_frames=24, height=72, width=128, seed=3,
                          faces_per_frame=1.0)


def test_video_validates_arguments():
    with pytest.raises(ValueError):
        SyntheticVideo(n_frames=0)
    with pytest.raises(ValueError):
        SyntheticVideo(n_frames=5, height=10, width=10)


def test_frames_are_deterministic(video):
    assert np.array_equal(video.frame(3), video.frame(3))
    other = SyntheticVideo(n_frames=24, height=72, width=128, seed=3)
    assert np.array_equal(video.frame(3), other.frame(3))


def test_frame_values_in_unit_range(video):
    frame = video.frame(0)
    assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_frame_index_bounds(video):
    with pytest.raises(IndexError):
        video.frame(24)
    with pytest.raises(IndexError):
        video.frame(-1)


def test_ground_truth_is_in_frame_order(video):
    frames = [face.frame_index for face in video.ground_truth]
    assert frames == sorted(frames)
    assert video.faces_in_range(0, video.n_frames) == video.ground_truth


@given(start=st.integers(-5, 30), stop=st.integers(-5, 30))
@settings(max_examples=60, deadline=None)
def test_face_index_agrees_with_ground_truth_scan(start, stop):
    video = SyntheticVideo(n_frames=24, height=72, width=128, seed=3,
                           faces_per_frame=1.0)
    assert video.faces_in_range(start, stop) == [
        face for face in video.ground_truth
        if start <= face.frame_index < stop]


def test_total_bytes_models_frame_count():
    video = SyntheticVideo(n_frames=100, height=72, width=128,
                           bytes_per_frame=50 * KB)
    assert video.total_bytes == 100 * 50 * KB


def test_chunking_covers_all_frames(video):
    chunks = chunk_video(video, 5)
    assert chunks[0].start_frame == 0
    assert chunks[-1].stop_frame == video.n_frames
    covered = sum(chunk.n_frames for chunk in chunks)
    assert covered == video.n_frames
    for previous, current in zip(chunks, chunks[1:]):
        assert previous.stop_frame == current.start_frame


def test_chunk_count_capped_by_frames(video):
    chunks = chunk_video(video, 1000)
    assert len(chunks) == video.n_frames


def test_payload_limit_forces_more_chunks():
    video = SyntheticVideo(n_frames=100, height=72, width=128,
                           bytes_per_frame=50 * KB)
    chunks = chunk_video(video, 2, max_chunk_bytes=256 * KB)
    # At most 5 frames (250 KB) per chunk → at least 20 chunks.
    assert len(chunks) >= 20
    assert all(chunk.payload_size <= 256 * KB for chunk in chunks)


def test_chunk_rejects_nonpositive_count(video):
    with pytest.raises(ValueError):
        chunk_video(video, 0)


def test_detector_finds_planted_faces(video):
    detector = FaceDetector(DetectionModel())
    found_frames = set()
    truth_frames = {face.frame_index for face in video.ground_truth}
    for index in range(video.n_frames):
        if detector.detect_frame(video.frame(index)):
            found_frames.add(index)
    # Recall over frames: the detector finds faces in most frames that
    # actually contain them.
    if truth_frames:
        recall = len(found_frames & truth_frames) / len(truth_frames)
        assert recall > 0.6


def test_detector_rejects_empty_frames():
    empty = SyntheticVideo(n_frames=8, height=72, width=128, seed=5,
                           faces_per_frame=0.0)
    detector = FaceDetector(DetectionModel())
    false_positives = sum(
        len(detector.detect_frame(empty.frame(index))) for index in range(8))
    assert false_positives == 0


def test_detection_positions_near_ground_truth(video):
    detector = FaceDetector(DetectionModel())
    for face in video.ground_truth[:5]:
        hits = detector.detect_frame(video.frame(face.frame_index))
        if not hits:
            continue
        nearest = min(hits, key=lambda hit: (hit[0] - face.row) ** 2
                      + (hit[1] - face.col) ** 2)
        assert abs(nearest[0] - face.row) <= face.size
        assert abs(nearest[1] - face.col) <= face.size


def test_merge_orders_and_flattens():
    merged = merge_chunks([
        (1, [(5, 0, 0)]),
        (0, [(1, 2, 3), (0, 1, 1)]),
    ])
    assert merged.n_chunks == 2
    assert merged.detections == [(0, 1, 1), (1, 2, 3), (5, 0, 0)]


def test_pipeline_end_to_end(video):
    pipeline = VideoPipeline(video)
    result = pipeline.run(n_workers=4)
    assert result.n_workers == 4
    assert len(result.detections) > 0
    # Same detections regardless of worker count (correctness invariant).
    serial = pipeline.run(n_workers=1)
    assert result.detections == serial.detections


def test_detection_model_payload_is_1mb():
    assert DetectionModel().payload_size == 1024 * 1024


@given(n_workers=st.integers(1, 30))
@settings(max_examples=15, deadline=None)
def test_chunking_partition_invariant(n_workers):
    video = SyntheticVideo(n_frames=60, seed=0, faces_per_frame=0.0)
    chunks = chunk_video(video, n_workers)
    assert sum(chunk.n_frames for chunk in chunks) == 60
    assert len(chunks) == min(n_workers, 60)
