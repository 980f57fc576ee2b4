"""Regression models implemented from scratch on numpy.

The paper's model-selection step (§IV-A) "search[es] through
RandomForestRegressor, KNeighborsRegressor, and Lasso to find the best
fit model".  These are working implementations of all three — a slow
ensemble, a lazy learner whose payload is its training set, and a linear
model — with honest ``payload_size`` values, because the paper's model
sizes ("ranging from 100 KB to 5.2 MB") drive its payload-limit and
storage behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    return float(np.mean((y_true - y_pred) ** 2))


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 is perfect, 0 is mean-predictor)."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    total = float(np.sum((y_true - y_true.mean()) ** 2))
    if total == 0.0:
        return 0.0
    residual = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - residual / total


class NotFittedError(RuntimeError):
    """predict() was called before fit()."""


def _check_fit_inputs(features: np.ndarray,
                      targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if targets.ndim != 1 or len(targets) != len(features):
        raise ValueError(
            f"targets must be 1-D with {len(features)} entries, "
            f"got shape {targets.shape}")
    if len(features) == 0:
        raise ValueError("cannot fit on an empty dataset")
    return features, targets


# -- decision tree (the random forest's base learner) ---------------------------

@dataclass
class _Node:
    """One tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class DecisionTreeRegressor:
    """CART regression tree with random feature sub-sampling.

    Each node draws ``max_features`` candidate columns and scores every
    threshold of each candidate's grid at once: one stacked comparison
    and one stacked matmul per grid width, not one pass per column.
    """

    def __init__(self, max_depth: int = 8, min_samples_split: int = 4,
                 max_features: Optional[int] = None, n_thresholds: int = 12,
                 seed: int = 0):
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.max_features = max_features
        self.n_thresholds = max(1, n_thresholds)
        self.seed = seed
        self.root_: Optional[_Node] = None
        self.node_count_ = 0

    def fit(self, features: np.ndarray,
            targets: np.ndarray) -> "DecisionTreeRegressor":
        """Grow the tree.

        Threshold grids are the distinct quantiles of each *whole*
        training column, computed once per fit, so nodes scan a fixed
        grid instead of re-sorting their rows.  Grids are stored padded
        to the widest (``_grids``) beside their widths (``_widths``);
        tied quantiles make some grids narrower than ``n_thresholds``.
        """
        features, targets = _check_fit_inputs(features, targets)
        rng = np.random.default_rng(self.seed)
        self.node_count_ = 0
        quantiles = np.linspace(0.0, 1.0, self.n_thresholds + 2)[1:-1]
        grids = [np.unique(column) for column in
                 np.quantile(features, quantiles, axis=0).T]
        self._widths = np.array([len(grid) for grid in grids])
        self._grids = np.zeros((len(grids), self._widths.max()))
        for row, grid in zip(self._grids, grids):
            row[:len(grid)] = grid
        self.root_ = self._build(features, targets, depth=0, rng=rng)
        return self

    def _build(self, features: np.ndarray, targets: np.ndarray, depth: int,
               rng: np.random.Generator) -> _Node:
        self.node_count_ += 1
        node_value = float(targets.mean())
        if (depth >= self.max_depth
                or len(targets) < self.min_samples_split
                or np.ptp(targets) == 0.0):
            return _Node(value=node_value)

        n_features = features.shape[1]
        k = self.max_features or max(1, int(np.sqrt(n_features)))
        candidates = rng.choice(n_features, size=min(k, n_features),
                                replace=False)
        sse, thresholds = self._scan(features, targets, candidates)
        # The first candidate holding the lowest finite SSE wins.
        sse[~np.isfinite(sse)] = np.inf
        best = int(np.argmin(sse))
        if sse[best] == np.inf:
            return _Node(value=node_value)
        feature, threshold = int(candidates[best]), float(thresholds[best])
        mask = features[:, feature] <= threshold
        return _Node(
            feature=feature, threshold=threshold, value=node_value,
            left=self._build(features[mask], targets[mask], depth + 1, rng),
            right=self._build(features[~mask], targets[~mask], depth + 1,
                              rng))

    def _scan(self, features: np.ndarray, targets: np.ndarray,
              candidates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each candidate's lowest split SSE and the threshold giving it.

        Candidates whose grids share a width are scored as one stack.
        Each slice of the stacked ``targets @ mask`` is the same
        (rows × width) float64 product that scoring one column at a time
        computes, so every SSE, and hence every split, is bit for bit
        the same; summing the targets in any other order is not.
        """
        n_rows = len(targets)
        total_sum = float(targets.sum())
        total_sq = float((targets ** 2).sum())
        best_sse = np.empty(len(candidates))
        best_threshold = np.empty(len(candidates))
        widths = self._widths[candidates]
        for width in set(widths.tolist()):
            members = np.flatnonzero(widths == width)
            group = candidates[members]
            grid = self._grids[group, :width]
            # mask[g, i, t] is 1.0 where row i goes left at threshold t
            # of candidate g; built straight into the matmul's dtype.
            mask = np.empty((len(group), n_rows, width))
            np.less_equal(features[:, group].T[:, :, None], grid[:, None, :],
                          out=mask)
            left_count = mask.sum(axis=1)
            left_sum = targets @ mask
            right_count = n_rows - left_count
            right_sum = total_sum - left_sum
            valid = (left_count > 0) & (left_count < n_rows)
            with np.errstate(divide="ignore", invalid="ignore"):
                # SSE = Σy² - (Σy_left)²/n_left - (Σy_right)²/n_right
                sse = (total_sq
                       - np.where(valid, left_sum ** 2 / left_count, 0.0)
                       - np.where(valid, right_sum ** 2 / right_count, 0.0))
            sse[~valid] = np.inf
            index = sse.argmin(axis=1)
            rows = np.arange(len(group))
            best_sse[members] = sse[rows, index]
            best_threshold[members] = grid[rows, index]
        return best_sse, best_threshold

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.root_ is None:
            raise NotFittedError("DecisionTreeRegressor.fit() not called")
        features = np.asarray(features, dtype=float)
        predictions = np.empty(len(features))
        self._route(self.root_, features, np.arange(len(features)),
                    predictions)
        return predictions

    def _route(self, node: _Node, features: np.ndarray, indices: np.ndarray,
               out: np.ndarray) -> None:
        """Vectorised prediction: route index blocks down the tree."""
        if node.is_leaf or len(indices) == 0:
            out[indices] = node.value
            return
        mask = features[indices, node.feature] <= node.threshold
        self._route(node.left, features, indices[mask], out)
        self._route(node.right, features, indices[~mask], out)

    @property
    def payload_size(self) -> int:
        """Serialized size: ~64 bytes per node (sklearn-like node arrays)."""
        return 128 + self.node_count_ * 64


class RandomForestRegressor:
    """Bagged ensemble of CART trees — the paper's "larger model"."""

    def __init__(self, n_estimators: int = 10, max_depth: int = 8,
                 min_samples_split: int = 4,
                 max_features: Optional[int] = None, seed: int = 0):
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.trees_: List[DecisionTreeRegressor] = []

    def fit(self, features: np.ndarray,
            targets: np.ndarray) -> "RandomForestRegressor":
        features, targets = _check_fit_inputs(features, targets)
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        n_rows = len(features)
        for index in range(self.n_estimators):
            sample = rng.integers(0, n_rows, n_rows)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2 ** 31)))
            tree.fit(features[sample], targets[sample])
            self.trees_.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise NotFittedError("RandomForestRegressor.fit() not called")
        predictions = np.zeros(len(features))
        for tree in self.trees_:
            predictions += tree.predict(features)
        return predictions / len(self.trees_)

    @property
    def payload_size(self) -> int:
        return 256 + sum(tree.payload_size for tree in self.trees_)


class KNeighborsRegressor:
    """k-nearest-neighbours — the paper's "smaller and faster model".

    Fitting is trivial; the payload is the whole training set, which is
    what makes its serialized size a "few MBs" at 10 K rows — the kind of
    state the paper persists inside durable entities.
    """

    def __init__(self, n_neighbors: int = 5, chunk_size: int = 512):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be at least 1")
        self.n_neighbors = n_neighbors
        self.chunk_size = max(1, chunk_size)
        self.features_: Optional[np.ndarray] = None
        self.targets_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray,
            targets: np.ndarray) -> "KNeighborsRegressor":
        features, targets = _check_fit_inputs(features, targets)
        self.features_ = features
        self.targets_ = targets
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.features_ is None:
            raise NotFittedError("KNeighborsRegressor.fit() not called")
        features = np.asarray(features, dtype=float)
        k = min(self.n_neighbors, len(self.features_))
        predictions = np.empty(len(features))
        train_sq = np.sum(self.features_ ** 2, axis=1)
        for start in range(0, len(features), self.chunk_size):
            block = features[start:start + self.chunk_size]
            distances = (np.sum(block ** 2, axis=1)[:, None]
                         - 2.0 * block @ self.features_.T + train_sq[None, :])
            nearest = np.argpartition(distances, k - 1, axis=1)[:, :k]
            predictions[start:start + len(block)] = (
                self.targets_[nearest].mean(axis=1))
        return predictions

    @property
    def payload_size(self) -> int:
        if self.features_ is None:
            return 64
        return 128 + (self.features_.size + self.targets_.size) * 8


class LassoRegressor:
    """L1-regularised linear regression via coordinate descent."""

    def __init__(self, alpha: float = 1.0, max_iter: int = 500,
                 tol: float = 1e-6):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    def fit(self, features: np.ndarray,
            targets: np.ndarray) -> "LassoRegressor":
        features, targets = _check_fit_inputs(features, targets)
        n_rows, n_cols = features.shape
        x_mean = features.mean(axis=0)
        y_mean = targets.mean()
        x_centered = features - x_mean
        y_centered = targets - y_mean

        coef = np.zeros(n_cols)
        column_sq = np.sum(x_centered ** 2, axis=0)
        residual = y_centered.copy()
        threshold = self.alpha * n_rows
        for iteration in range(self.max_iter):
            max_delta = 0.0
            for j in range(n_cols):
                if column_sq[j] == 0.0:
                    continue
                rho = x_centered[:, j] @ residual + coef[j] * column_sq[j]
                new_coef = _soft_threshold(rho, threshold) / column_sq[j]
                delta = new_coef - coef[j]
                if delta != 0.0:
                    residual -= delta * x_centered[:, j]
                    coef[j] = new_coef
                    max_delta = max(max_delta, abs(delta))
            self.n_iter_ = iteration + 1
            if max_delta < self.tol:
                break
        self.coef_ = coef
        self.intercept_ = float(y_mean - x_mean @ coef)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise NotFittedError("LassoRegressor.fit() not called")
        features = np.asarray(features, dtype=float)
        return features @ self.coef_ + self.intercept_

    @property
    def payload_size(self) -> int:
        if self.coef_ is None:
            return 64
        return 128 + self.coef_.size * 8


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0
