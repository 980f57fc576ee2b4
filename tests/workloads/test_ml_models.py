"""Tests for preprocessing, PCA and the from-scratch regressors.

:class:`ReferenceTree` grows a tree the way :class:`DecisionTreeRegressor`
did before its split search was stacked: one quantile call per column
and one scoring pass per candidate column.  The stacked search computes
the same float64 operations on the same operands, so the trees must be
identical node for node, not merely close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployments.ml import MLWorkload
from repro.workloads.ml import (
    KNeighborsRegressor,
    LassoRegressor,
    MinMaxScaler,
    OneHotEncoder,
    PCA,
    RandomForestRegressor,
    make_car_pricing_dataset,
    mean_squared_error,
    r2_score,
)
from repro.workloads.ml import models
from repro.workloads.ml.models import DecisionTreeRegressor, NotFittedError
from repro.workloads.ml.pipeline import (
    prepare_data,
    reduce_dimensions,
    split_for_validation,
)
from repro.workloads.ml.preprocess import NotFittedError as PrepNotFitted
from repro.workloads.ml.selection import select_best, train_candidate


@pytest.fixture(scope="module")
def dataset():
    return make_car_pricing_dataset(400, seed=7)


@pytest.fixture(scope="module")
def regression_problem():
    """A well-conditioned synthetic regression task."""
    rng = np.random.default_rng(0)
    features = rng.normal(size=(300, 6))
    coefficients = np.array([3.0, -2.0, 0.0, 1.5, 0.0, 4.0])
    targets = features @ coefficients + rng.normal(0, 0.1, 300)
    return features, targets


# -- preprocessing ------------------------------------------------------------

def test_one_hot_encoder_shapes(dataset):
    encoder = OneHotEncoder().fit(dataset.features)
    encoded = encoder.transform(dataset.features)
    assert encoded.shape == (400, encoder.n_output_features)
    assert set(np.unique(encoded)) <= {0.0, 1.0}
    # Each categorical column contributes exactly one 1 per row.
    assert (encoded.sum(axis=1) == 12).all()


def test_one_hot_unknown_category_maps_to_zeros(dataset):
    encoder = OneHotEncoder().fit(dataset.features)
    from repro.workloads.ml.dataset import Frame
    weird = Frame({name: np.array(["__unseen__"], dtype=object)
                   if name in dataset.features.categorical_columns
                   else np.array([0.0])
                   for name in dataset.features.column_names})
    encoded = encoder.transform(weird)
    assert encoded.sum() == 0.0


def test_one_hot_requires_fit(dataset):
    with pytest.raises(PrepNotFitted):
        OneHotEncoder().transform(dataset.features)


def test_minmax_scaler_range(dataset):
    matrix = dataset.features.numeric_matrix()
    scaled = MinMaxScaler().fit_transform(matrix)
    assert scaled.min() >= 0.0
    assert scaled.max() <= 1.0 + 1e-12
    assert np.isclose(scaled.min(axis=0), 0.0).all()


def test_minmax_scaler_constant_column():
    matrix = np.column_stack([np.ones(10), np.arange(10.0)])
    scaled = MinMaxScaler().fit_transform(matrix)
    assert (scaled[:, 0] == 0.0).all()


def test_minmax_scaler_column_mismatch():
    scaler = MinMaxScaler().fit(np.zeros((5, 3)))
    with pytest.raises(ValueError, match="columns"):
        scaler.transform(np.zeros((5, 4)))


# -- PCA ------------------------------------------------------------------------

def test_pca_reduces_dimensions():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(200, 10))
    reduced = PCA(n_components=3).fit_transform(data)
    assert reduced.shape == (200, 3)


def test_pca_captures_dominant_direction():
    rng = np.random.default_rng(0)
    direction = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    data = (rng.normal(size=(500, 1)) * 10) @ direction[None, :]
    data += rng.normal(0, 0.1, size=(500, 3))
    pca = PCA(n_components=1).fit(data)
    assert pca.explained_variance_ratio_[0] > 0.98


def test_pca_transform_is_centered():
    rng = np.random.default_rng(1)
    data = rng.normal(loc=100.0, size=(100, 4))
    pca = PCA(n_components=2).fit(data)
    reduced = pca.transform(data)
    assert np.allclose(reduced.mean(axis=0), 0.0, atol=1e-8)


def test_pca_rejects_too_many_components():
    with pytest.raises(ValueError, match="n_components"):
        PCA(n_components=10).fit(np.zeros((5, 3)))


# -- metrics ----------------------------------------------------------------------

def test_mse_and_r2_perfect_prediction():
    y = np.array([1.0, 2.0, 3.0])
    assert mean_squared_error(y, y) == 0.0
    assert r2_score(y, y) == 1.0


def test_r2_of_mean_predictor_is_zero():
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, np.full(3, 2.0)) == pytest.approx(0.0)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mean_squared_error(np.zeros(3), np.zeros(4))


# -- models --------------------------------------------------------------------------

def test_decision_tree_fits_signal(regression_problem):
    features, targets = regression_problem
    tree = DecisionTreeRegressor(max_depth=8, seed=0).fit(features, targets)
    predictions = tree.predict(features)
    assert r2_score(targets, predictions) > 0.7


def test_decision_tree_predict_before_fit():
    with pytest.raises(NotFittedError):
        DecisionTreeRegressor().predict(np.zeros((2, 2)))


def test_decision_tree_constant_target_is_single_leaf():
    tree = DecisionTreeRegressor().fit(np.random.rand(20, 3), np.ones(20))
    assert tree.node_count_ == 1
    assert np.allclose(tree.predict(np.random.rand(5, 3)), 1.0)


def test_random_forest_beats_single_shallow_tree(regression_problem):
    features, targets = regression_problem
    rng = np.random.default_rng(9)
    test_idx = rng.choice(len(features), 60, replace=False)
    train_mask = np.ones(len(features), dtype=bool)
    train_mask[test_idx] = False

    forest = RandomForestRegressor(n_estimators=15, max_depth=6, seed=0)
    forest.fit(features[train_mask], targets[train_mask])
    tree = DecisionTreeRegressor(max_depth=2, seed=0)
    tree.fit(features[train_mask], targets[train_mask])

    forest_error = mean_squared_error(
        targets[test_idx], forest.predict(features[test_idx]))
    tree_error = mean_squared_error(
        targets[test_idx], tree.predict(features[test_idx]))
    assert forest_error < tree_error


def test_random_forest_payload_grows_with_estimators(regression_problem):
    features, targets = regression_problem
    small = RandomForestRegressor(n_estimators=2, seed=0).fit(
        features, targets)
    large = RandomForestRegressor(n_estimators=10, seed=0).fit(
        features, targets)
    assert large.payload_size > small.payload_size


def test_knn_exact_on_memorised_points():
    features = np.array([[0.0], [1.0], [10.0], [11.0]])
    targets = np.array([0.0, 1.0, 10.0, 11.0])
    knn = KNeighborsRegressor(n_neighbors=1).fit(features, targets)
    assert np.allclose(knn.predict(features), targets)


def test_knn_neighbourhood_averaging():
    features = np.array([[0.0], [1.0], [100.0], [101.0]])
    targets = np.array([0.0, 2.0, 100.0, 102.0])
    knn = KNeighborsRegressor(n_neighbors=2).fit(features, targets)
    assert knn.predict(np.array([[0.5]]))[0] == pytest.approx(1.0)
    assert knn.predict(np.array([[100.5]]))[0] == pytest.approx(101.0)


def test_knn_payload_is_training_set_sized():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(1000, 20))
    knn = KNeighborsRegressor().fit(features, rng.normal(size=1000))
    assert knn.payload_size > 1000 * 20 * 8


def test_knn_chunked_predict_matches_unchunked(regression_problem):
    features, targets = regression_problem
    small_chunks = KNeighborsRegressor(n_neighbors=3, chunk_size=7)
    one_chunk = KNeighborsRegressor(n_neighbors=3, chunk_size=10_000)
    small_chunks.fit(features, targets)
    one_chunk.fit(features, targets)
    assert np.allclose(small_chunks.predict(features[:50]),
                       one_chunk.predict(features[:50]))


def test_lasso_recovers_sparse_coefficients(regression_problem):
    features, targets = regression_problem
    lasso = LassoRegressor(alpha=0.05).fit(features, targets)
    # True zero coefficients (indices 2, 4) should be (near) zero.
    assert abs(lasso.coef_[2]) < 0.2
    assert abs(lasso.coef_[4]) < 0.2
    assert r2_score(targets, lasso.predict(features)) > 0.95


def test_lasso_large_alpha_kills_all_coefficients(regression_problem):
    features, targets = regression_problem
    lasso = LassoRegressor(alpha=1e6).fit(features, targets)
    assert np.allclose(lasso.coef_, 0.0)
    # Prediction degenerates to the mean.
    assert np.allclose(lasso.predict(features), targets.mean(), atol=1.0)


def test_lasso_rejects_negative_alpha():
    with pytest.raises(ValueError):
        LassoRegressor(alpha=-1.0)


def test_models_validate_inputs():
    with pytest.raises(ValueError):
        RandomForestRegressor().fit(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        KNeighborsRegressor().fit(np.zeros(5), np.zeros(5))
    with pytest.raises(ValueError):
        LassoRegressor().fit(np.zeros((0, 2)), np.zeros(0))


@given(st.integers(1, 50))
@settings(max_examples=20, deadline=None)
def test_knn_predictions_within_target_range(k):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(60, 4))
    targets = rng.uniform(10.0, 20.0, 60)
    knn = KNeighborsRegressor(n_neighbors=k).fit(features, targets)
    predictions = knn.predict(rng.normal(size=(10, 4)))
    assert (predictions >= 10.0).all() and (predictions <= 20.0).all()


# -- the stacked split search against the per-column loop ------------------------

class ReferenceTree(DecisionTreeRegressor):
    """A tree grown one candidate column at a time."""

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        rng = np.random.default_rng(self.seed)
        self.node_count_ = 0
        quantiles = np.linspace(0.0, 1.0, self.n_thresholds + 2)[1:-1]
        self._grids = [np.unique(np.quantile(features[:, j], quantiles))
                       for j in range(features.shape[1])]
        self.root_ = self._build(features, targets, depth=0, rng=rng)
        return self

    def _build(self, features, targets, depth, rng):
        self.node_count_ += 1
        node_value = float(targets.mean())
        if (depth >= self.max_depth
                or len(targets) < self.min_samples_split
                or np.ptp(targets) == 0.0):
            return models._Node(value=node_value)

        n_features = features.shape[1]
        k = self.max_features or max(1, int(np.sqrt(n_features)))
        candidates = rng.choice(n_features, size=min(k, n_features),
                                replace=False)

        n_rows = len(targets)
        total_sum = float(targets.sum())
        total_sq = float((targets ** 2).sum())
        best = None  # (sse, feature, threshold)
        for feature in candidates:
            column = features[:, feature]
            thresholds = self._grids[feature]
            if len(thresholds) == 0:
                continue
            mask = column[:, None] <= thresholds[None, :]
            left_count = mask.sum(axis=0)
            valid = (left_count > 0) & (left_count < n_rows)
            if not valid.any():
                continue
            left_sum = targets @ mask
            right_count = n_rows - left_count
            right_sum = total_sum - left_sum
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = (total_sq
                       - np.where(valid, left_sum ** 2 / left_count, 0.0)
                       - np.where(valid, right_sum ** 2 / right_count, 0.0))
            sse[~valid] = np.inf
            index = int(np.argmin(sse))
            if np.isfinite(sse[index]) and (best is None
                                            or sse[index] < best[0]):
                best = (float(sse[index]), int(feature),
                        float(thresholds[index]))

        if best is None:
            return models._Node(value=node_value)
        _, feature, threshold = best
        mask = features[:, feature] <= threshold
        return models._Node(
            feature=feature, threshold=threshold, value=node_value,
            left=self._build(features[mask], targets[mask], depth + 1, rng),
            right=self._build(features[~mask], targets[~mask], depth + 1,
                              rng))


def node_bits(tree):
    """(feature, threshold bits, value bits) of every node, in preorder."""
    bits, stack = [], [tree.root_]
    while stack:
        node = stack.pop()
        bits.append((node.feature, node.threshold.hex(), node.value.hex()))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return bits


def assert_same_tree(tree, reference):
    assert tree.node_count_ == reference.node_count_
    assert node_bits(tree) == node_bits(reference)


@st.composite
def split_problems(draw):
    """Random fits whose grids come in several widths: integer-valued
    columns tie quantiles and constant columns collapse to one."""
    n_rows = draw(st.integers(4, 300))
    n_cols = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["real", "integer",
                                               "constant"]),
                              min_size=n_cols, max_size=n_cols)):
        if kind == "real":
            columns.append(rng.normal(size=n_rows))
        elif kind == "integer":
            columns.append(
                rng.integers(0, rng.integers(2, 8), n_rows).astype(float))
        else:
            columns.append(np.full(n_rows, rng.normal()))
    features = np.column_stack(columns)
    if draw(st.booleans()):
        targets = rng.integers(0, 4, n_rows).astype(float)   # tied
    else:
        targets = rng.normal(0.0, 10.0, n_rows)
    params = dict(max_depth=draw(st.integers(1, 12)),
                  min_samples_split=draw(st.integers(2, 10)),
                  max_features=draw(st.none() | st.integers(1, 40)),
                  n_thresholds=draw(st.integers(1, 15)),
                  seed=draw(st.integers(0, 2 ** 31 - 1)))
    return features, targets, params


@given(split_problems())
@settings(max_examples=60, deadline=None)
def test_stacked_split_search_grows_the_reference_tree(problem):
    features, targets, params = problem
    tree = DecisionTreeRegressor(**params).fit(features, targets)
    reference = ReferenceTree(**params).fit(features, targets)
    assert_same_tree(tree, reference)
    probes = np.vstack([features, features + 0.25])
    assert np.array_equal(tree.predict(probes), reference.predict(probes))


@pytest.mark.parametrize("seed", range(4))
def test_trained_forests_equal_the_reference(monkeypatch, seed):
    """Every forest the small ML workload trains is the one the
    per-column loop grows, so every validation error and the selected
    model are the same too."""
    workload = MLWorkload("small", seed)
    trained = workload.trained
    pipeline = workload.pipeline
    reduced = reduce_dimensions(prepare_data(workload.train_dataset).matrix,
                                pipeline.n_components)
    split = split_for_validation(reduced.matrix,
                                 workload.train_dataset.prices,
                                 seed=pipeline.seed)
    # the forest's bootstrap, grown with reference trees
    monkeypatch.setattr(models, "DecisionTreeRegressor", ReferenceTree)
    references = [train_candidate(result.candidate, *split)
                  if result.candidate.algorithm == "random_forest"
                  else result for result in trained.results]
    forests = 0
    for result, reference in zip(trained.results, references):
        assert result.error.hex() == reference.error.hex()
        if result is not reference:
            forests += 1
            assert len(result.model.trees_) == len(reference.model.trees_)
            for tree, reference_tree in zip(result.model.trees_,
                                            reference.model.trees_):
                assert_same_tree(tree, reference_tree)
            assert np.array_equal(result.model.predict(split[2]),
                                  reference.model.predict(split[2]))
    assert forests == 1
    assert (select_best(references).candidate.name
            == trained.best.candidate.name)
