"""Tests for the synthetic car-pricing dataset and Frame."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.ml import Frame, make_car_pricing_dataset, train_test_split


def test_dataset_shape_matches_paper():
    dataset = make_car_pricing_dataset(200, seed=0)
    assert dataset.n_rows == 200
    assert len(dataset.features.numeric_columns) == 14
    assert len(dataset.features.categorical_columns) == 12
    assert len(dataset.features.column_names) == 26


def test_dataset_is_deterministic_per_seed():
    first = make_car_pricing_dataset(100, seed=5)
    second = make_car_pricing_dataset(100, seed=5)
    assert np.array_equal(first.prices, second.prices)
    assert np.array_equal(first.features["mileage_km"],
                          second.features["mileage_km"])


def test_different_seeds_differ():
    first = make_car_pricing_dataset(100, seed=1)
    second = make_car_pricing_dataset(100, seed=2)
    assert not np.array_equal(first.prices, second.prices)


def test_prices_are_positive_and_signal_bearing():
    dataset = make_car_pricing_dataset(2000, seed=3)
    assert (dataset.prices > 0).all()
    # Newer cars should be pricier on average (signal, not noise).
    year = dataset.features["year"]
    newer = dataset.prices[year >= 2015].mean()
    older = dataset.prices[year <= 2005].mean()
    assert newer > older


def test_rejects_nonpositive_rows():
    with pytest.raises(ValueError):
        make_car_pricing_dataset(0)


def test_frame_rejects_ragged_columns():
    with pytest.raises(ValueError, match="ragged"):
        Frame({"a": np.zeros(3), "b": np.zeros(4)})


def test_frame_take_subsets_rows():
    dataset = make_car_pricing_dataset(50, seed=0)
    subset = dataset.features.take(np.array([0, 5, 10]))
    assert subset.n_rows == 3
    assert subset["year"][1] == dataset.features["year"][5]


def test_frame_numeric_matrix_shape():
    dataset = make_car_pricing_dataset(30, seed=0)
    assert dataset.features.numeric_matrix().shape == (30, 14)


def test_frame_payload_size_scales_with_rows():
    small = make_car_pricing_dataset(200, seed=0).features
    large = make_car_pricing_dataset(2000, seed=0).features
    assert large.payload_size > 5 * small.payload_size


def test_frame_payload_size_is_pinned_and_take_gets_its_own():
    features = make_car_pricing_dataset(200, seed=0).features
    assert features.payload_size == 38464
    assert features.take(np.array([0, 5, 10])).payload_size == 985
    assert features.take(np.arange(200)).payload_size == 38464
    assert features.payload_size == 38464


def test_frame_payload_size_is_computed_once():
    features = make_car_pricing_dataset(200, seed=0).features
    first = features.payload_size
    # A frame is never mutated in place; doing it here shows the size is
    # not walked again on the second read.
    features.columns["make"] = np.array(["x" * 50] * 200, dtype=object)
    assert features.payload_size == first


def test_train_test_split_partitions():
    dataset = make_car_pricing_dataset(100, seed=0)
    train, test = train_test_split(dataset, test_fraction=0.2, seed=1)
    assert train.n_rows + test.n_rows == 100
    assert test.n_rows == 20
    assert train.name.endswith("-train")
    assert test.name.endswith("-test")


def test_train_test_split_validates_fraction():
    dataset = make_car_pricing_dataset(10, seed=0)
    with pytest.raises(ValueError):
        train_test_split(dataset, test_fraction=0.0)
    with pytest.raises(ValueError):
        train_test_split(dataset, test_fraction=1.0)


@given(n_rows=st.integers(1, 300))
@settings(max_examples=20, deadline=None)
def test_any_size_dataset_is_consistent(n_rows):
    dataset = make_car_pricing_dataset(n_rows, seed=0)
    assert dataset.n_rows == n_rows
    assert len(dataset.prices) == n_rows
    assert np.isfinite(dataset.prices).all()
