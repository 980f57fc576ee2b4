"""Synthetic car-pricing dataset.

Stands in for the paper's car-pricing regression data (§IV-A): "The
datasets have 26 features, 12 of which are not numerical and require
encoding and scaling during the feature engineering steps", tested at two
scales — "small and large, with 200 and 10 K rows".

Prices come from a ground-truth function of the features plus noise, so
the pipeline's models have real signal to learn and model selection is a
meaningful comparison, not noise-fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: 14 numeric + 12 categorical = 26 features, matching the paper.
NUMERIC_FEATURES = [
    "year", "mileage_km", "engine_cc", "horsepower", "torque_nm",
    "curb_weight_kg", "length_mm", "width_mm", "height_mm", "wheelbase_mm",
    "fuel_economy_l100km", "top_speed_kmh", "acceleration_s", "num_owners",
]

CATEGORICAL_FEATURES = {
    "make": ["toyo", "hond", "ford", "bmw", "merc", "audi", "kia", "fiat"],
    "fuel_type": ["gas", "diesel", "hybrid", "electric"],
    "transmission": ["manual", "auto", "cvt"],
    "body_style": ["sedan", "hatch", "suv", "coupe", "wagon"],
    "drive_wheels": ["fwd", "rwd", "4wd"],
    "aspiration": ["std", "turbo"],
    "doors": ["two", "four"],
    "color": ["white", "black", "silver", "red", "blue", "grey"],
    "region": ["north", "south", "east", "west"],
    "condition": ["new", "excellent", "good", "fair"],
    "seller_type": ["dealer", "private", "fleet"],
    "warranty": ["none", "partial", "full"],
}


class Frame:
    """A minimal column-major data frame (pandas stand-in).

    Numeric columns are float arrays; categorical columns are object
    arrays of strings.
    """

    def __init__(self, columns: Dict[str, np.ndarray]):
        if not columns:
            raise ValueError("a frame needs at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.columns: Dict[str, np.ndarray] = {
            name: np.asarray(values) for name, values in columns.items()}

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> List[str]:
        return list(self.columns)

    @property
    def numeric_columns(self) -> List[str]:
        return [name for name, values in self.columns.items()
                if np.issubdtype(values.dtype, np.number)]

    @property
    def categorical_columns(self) -> List[str]:
        return [name for name, values in self.columns.items()
                if not np.issubdtype(values.dtype, np.number)]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def take(self, indices: np.ndarray) -> "Frame":
        """Row subset by integer indices."""
        return Frame({name: values[indices]
                      for name, values in self.columns.items()})

    def numeric_matrix(self) -> np.ndarray:
        """The numeric columns stacked as an (n_rows, n_numeric) matrix."""
        names = self.numeric_columns
        return np.column_stack([self.columns[name] for name in names])

    @cached_property
    def payload_size(self) -> int:
        """Approximate serialized size (drives payload-limit behaviour).

        Computed once: a frame's columns are never mutated (:meth:`take`
        builds a new frame).
        """
        total = 0
        for values in self.columns.values():
            if np.issubdtype(values.dtype, np.number):
                total += values.size * 8
            else:
                total += sum(len(str(value)) + 2 for value in values)
        return total + 26 * 16

    def __repr__(self) -> str:
        return (f"Frame(rows={self.n_rows}, "
                f"numeric={len(self.numeric_columns)}, "
                f"categorical={len(self.categorical_columns)})")


@dataclass
class CarPricingDataset:
    """Features plus target prices, with a train/test view."""

    features: Frame
    prices: np.ndarray
    name: str = "car-pricing"

    @property
    def n_rows(self) -> int:
        return self.features.n_rows


def make_car_pricing_dataset(n_rows: int, seed: int = 0,
                             noise: float = 0.05) -> CarPricingDataset:
    """Generate ``n_rows`` of synthetic car listings with realistic signal.

    >>> dataset = make_car_pricing_dataset(200, seed=1)
    >>> dataset.features.n_rows
    200
    >>> len(dataset.features.numeric_columns)
    14
    >>> len(dataset.features.categorical_columns)
    12
    """
    if n_rows <= 0:
        raise ValueError("n_rows must be positive")
    rng = np.random.default_rng(seed)
    columns: Dict[str, np.ndarray] = {}

    year = rng.integers(2000, 2021, n_rows).astype(float)
    mileage = rng.gamma(shape=2.0, scale=40_000, size=n_rows)
    engine = rng.choice([1000, 1400, 1600, 2000, 2500, 3000, 4000],
                        n_rows).astype(float)
    horsepower = engine * rng.uniform(0.05, 0.09, n_rows)
    columns["year"] = year
    columns["mileage_km"] = mileage
    columns["engine_cc"] = engine
    columns["horsepower"] = horsepower
    columns["torque_nm"] = horsepower * rng.uniform(1.2, 1.8, n_rows)
    columns["curb_weight_kg"] = rng.uniform(900, 2400, n_rows)
    columns["length_mm"] = rng.uniform(3500, 5200, n_rows)
    columns["width_mm"] = rng.uniform(1600, 2000, n_rows)
    columns["height_mm"] = rng.uniform(1350, 1900, n_rows)
    columns["wheelbase_mm"] = columns["length_mm"] * rng.uniform(
        0.55, 0.65, n_rows)
    columns["fuel_economy_l100km"] = rng.uniform(3.5, 15.0, n_rows)
    columns["top_speed_kmh"] = 140 + horsepower * rng.uniform(
        0.4, 0.6, n_rows)
    columns["acceleration_s"] = np.clip(
        16.0 - horsepower / 25.0 + rng.normal(0, 0.8, n_rows), 2.5, 20.0)
    columns["num_owners"] = rng.integers(1, 6, n_rows).astype(float)

    for name, levels in CATEGORICAL_FEATURES.items():
        columns[name] = rng.choice(levels, n_rows).astype(object)

    # Ground-truth pricing with categorical effects and interactions.
    make_premium = {"bmw": 1.45, "merc": 1.5, "audi": 1.35, "toyo": 1.0,
                    "hond": 1.0, "ford": 0.92, "kia": 0.85, "fiat": 0.8}
    fuel_premium = {"gas": 1.0, "diesel": 1.02, "hybrid": 1.12,
                    "electric": 1.3}
    condition_factor = {"new": 1.3, "excellent": 1.1, "good": 0.95,
                        "fair": 0.75}

    # Deliberately nonlinear: exponential depreciation with mileage and
    # age, saturating horsepower value, and a premium-make × condition
    # interaction — the structure tree ensembles capture and a linear
    # model on one-hot features cannot.
    make_factor = np.vectorize(make_premium.get)(columns["make"]).astype(
        float)
    condition_mult = np.vectorize(condition_factor.get)(
        columns["condition"]).astype(float)
    age = 2021 - year
    base = (9_000
            + 60_000 * np.exp(-mileage / 90_000.0)
            + 30_000 * (1.0 - np.exp(-horsepower / 140.0))
            + (columns["fuel_economy_l100km"].max()
               - columns["fuel_economy_l100km"]) * 250)
    base *= np.exp(-age / 9.0)
    multiplier = (
        make_factor
        * np.vectorize(fuel_premium.get)(columns["fuel_type"]).astype(float)
        * condition_mult)
    # Premium makes in top condition command an extra nonlinear bump.
    multiplier *= 1.0 + 0.25 * (make_factor > 1.3) * (condition_mult > 1.0)
    prices = base * multiplier
    prices *= 1.0 + rng.normal(0.0, noise, n_rows)
    prices = np.clip(prices, 500.0, None)

    return CarPricingDataset(features=Frame(columns), prices=prices,
                             name=f"car-pricing-{n_rows}")


def train_test_split(dataset: CarPricingDataset, test_fraction: float = 0.2,
                     seed: int = 0) -> Tuple[CarPricingDataset,
                                             CarPricingDataset]:
    """Shuffle and split into (train, test) datasets."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    indices = rng.permutation(dataset.n_rows)
    n_test = max(1, int(round(dataset.n_rows * test_fraction)))
    test_idx, train_idx = indices[:n_test], indices[n_test:]
    train = CarPricingDataset(
        features=dataset.features.take(train_idx),
        prices=dataset.prices[train_idx], name=f"{dataset.name}-train")
    test = CarPricingDataset(
        features=dataset.features.take(test_idx),
        prices=dataset.prices[test_idx], name=f"{dataset.name}-test")
    return train, test
