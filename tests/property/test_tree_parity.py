"""Property-based parity: the batched CART equals the scalar reference.

``repro.ml.tree`` searches every node's splits in one batch over all
candidate features; ``tests/cart_reference.py`` is the per-feature scalar
scan it replaced. Grown on the same data with the same random stream, the
two must agree bit for bit: node order, split features, thresholds, leaf
values, raw importances, ``split_work``, node/leaf counts, depth and
predictions. The data are drawn to hit the tie-chain's hard cases: tied
x values, constant and duplicated columns (equal gains across features),
tied targets, ``min_samples_leaf > 1``, ``max_features`` subsets and
three or more classes.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ml.boosting import GradientBoostingRegressor
from repro.ml.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    _best_split,
    _scan,
    _tie_chain,
)
from repro.rng import make_rng
from tests.cart_reference import (
    ReferenceTreeCore,
    _best_split_classification,
    _best_split_regression,
)


@st.composite
def datasets(draw):
    """(X, seed): columns of few distinct values, constants and copies."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["levels", "binary", "float", "constant", "copy"]))
        if kind == "copy" and columns:
            columns.append(columns[draw(st.integers(0, len(columns) - 1))].copy())
        elif kind == "constant":
            columns.append(np.full(n, float(rng.integers(-3, 3))))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, n).astype(float))
        elif kind == "float":
            columns.append(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4))
        else:
            columns.append(rng.integers(0, 4, n) * 0.25)
    return np.column_stack(columns), seed


tree_params = st.fixed_dictionaries({
    "max_depth": st.integers(1, 6),
    "min_samples_split": st.integers(2, 5),
    "min_samples_leaf": st.integers(1, 4),
    "max_features": st.sampled_from([None, None, "sqrt", 0.5, 2]),
})


def _reference_nodes(core: ReferenceTreeCore) -> list[tuple]:
    out = []

    def walk(node):
        leaf = node.is_leaf
        out.append((
            -1 if leaf else node.feature,
            0.0 if leaf else node.threshold,
            node.prediction.tolist(),
        ))
        if not leaf:
            walk(node.left)
            walk(node.right)

    walk(core.root_)
    return out


def _assert_same_tree(model, ref: ReferenceTreeCore, X: np.ndarray) -> None:
    core = model._core_
    table = core.nodes
    nodes = [
        (int(f), float(t) if f >= 0 else 0.0, v.tolist())
        for f, t, v in zip(table.feature, table.threshold, table.value)
    ]
    assert nodes == _reference_nodes(ref)
    got, want = core.stats_, ref.stats_
    assert np.array_equal(got.importances, want.importances)
    assert got.split_work == want.split_work
    assert got.node_count == want.node_count == model.node_count
    assert got.leaf_count == want.leaf_count
    assert got.max_depth_seen == want.max_depth_seen == model.depth
    assert np.array_equal(model.feature_importances_, ref.normalized_importances())
    probe = np.vstack([X, X[::-1] + 0.125, np.zeros((1, X.shape[1]))])
    assert np.array_equal(core.predict_values(probe), ref.predict_values(probe))


@settings(max_examples=300, deadline=None)
@given(data=datasets(), params=tree_params, tied=st.booleans())
def test_regression_tree_matches_scalar_reference(data, params, tied):
    X, seed = data
    rng = np.random.default_rng(seed + 1)
    y = rng.integers(0, 3, len(X)) * 0.5 if tied else rng.standard_normal(len(X))
    model = DecisionTreeRegressor(seed=seed, **params).fit(X, y)
    ref = ReferenceTreeCore(
        params["max_depth"], params["min_samples_split"],
        params["min_samples_leaf"], params["max_features"],
    )
    ref.grow(X, y.astype(float), make_rng(seed), classification=False)
    _assert_same_tree(model, ref, X)
    n = max(len(X), 2)
    assert model.training_cost_ == ref.stats_.split_work * np.log2(n)


@settings(max_examples=300, deadline=None)
@given(data=datasets(), params=tree_params, n_classes=st.integers(2, 6))
def test_classification_tree_matches_scalar_reference(data, params, n_classes):
    X, seed = data
    labels = np.random.default_rng(seed + 2).integers(0, n_classes, len(X))
    labels[:2] = [0, 1]  # at least two classes
    model = DecisionTreeClassifier(seed=seed, **params).fit(X, labels)
    codes = np.searchsorted(model.classes_, labels)
    ref = ReferenceTreeCore(
        params["max_depth"], params["min_samples_split"],
        params["min_samples_leaf"], params["max_features"],
    )
    ref.grow(X, codes, make_rng(seed), classification=True,
             n_classes=len(model.classes_))
    _assert_same_tree(model, ref, X)


def test_equal_gains_across_features_keep_the_first():
    # three identical columns: every feature ties, the lowest index wins
    x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    X = np.column_stack([x, x, x])
    model = DecisionTreeRegressor(max_depth=1).fit(X, [0, 0, 1, 1, 1, 1])
    assert model._core_.nodes.feature[0] == 0
    assert model._core_.nodes.threshold[0] == 0.5


def test_best_split_gains_match_scalar_reference_bitwise():
    # The chosen gain feeds the importances, so it must carry the scalar
    # formula's exact bits. Squares of numpy scalars go through C pow and
    # differ from ``a * a`` in the last bit about once in a thousand, so
    # thousands of single-column searches are needed to expose a drift.
    rng = np.random.default_rng(20250301)
    for _ in range(3000):
        n = int(rng.integers(2, 30))
        x = rng.integers(0, 8, n) * 0.5
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-2, 3)
        min_leaf = int(rng.integers(1, 3))
        gain, column, threshold = _best_split(x[:, None], y, min_leaf, 0)
        ref_gain, ref_threshold = _best_split_regression(x, y, min_leaf)
        assert gain == ref_gain
        assert np.array_equal(threshold, ref_threshold, equal_nan=True)
        assert column == (0 if np.isfinite(ref_threshold) else -1)


def test_best_split_gini_gains_match_scalar_reference_bitwise():
    # up to 12 classes: np.sum switches to pairwise summation at 8 terms
    rng = np.random.default_rng(20250302)
    for _ in range(1500):
        n = int(rng.integers(2, 40))
        n_classes = int(rng.integers(2, 13))
        x = rng.standard_normal(n).round(1)
        codes = rng.integers(0, n_classes, n)
        min_leaf = int(rng.integers(1, 3))
        gain, _, threshold = _best_split(x[:, None], codes, min_leaf, n_classes)
        ref_gain, ref_threshold = _best_split_classification(
            x, codes, n_classes, min_leaf
        )
        assert gain == ref_gain
        assert np.array_equal(threshold, ref_threshold, equal_nan=True)


def _sequential_scan(gains) -> int:
    """The reference's loop: keep a gain only if it beats the best by 1e-12."""
    best, kept = 0.0, -1
    for i, gain in enumerate(gains):
        if gain > best + 1e-12:
            best, kept = gain, i
    return kept


#: gains around the 1e-12 margin: exact ties, near-ties inside and just
#: outside it, non-positive gains and masked (-inf) positions
_NEAR_TIES = [-np.inf, -1.0, 0.0, 5e-13, 1e-12, 1.5e-12, 1.0, 1.0 + 4e-13,
              1.0 + 8e-13, 1.0 + 1.2e-12, 1.0 + 2.5e-12, 2.0]


@settings(max_examples=500, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 9), st.integers(1, 4)),
    picks=st.lists(st.integers(0, len(_NEAR_TIES) - 1), min_size=36, max_size=36),
)
def test_tie_chain_replays_the_sequential_scan(shape, picks):
    rows, cols = shape
    gains = np.array([_NEAR_TIES[i] for i in picks[: rows * cols]]).reshape(rows, cols)
    expected = [_sequential_scan(gains[:, c].tolist()) for c in range(cols)]
    assert _tie_chain(gains).tolist() == expected
    for c in range(cols):
        assert _scan(gains[:, c].tolist()) == expected[c]


@settings(max_examples=60, deadline=None)
@given(data=datasets(), n_estimators=st.integers(0, 12), depth=st.integers(1, 4))
def test_boosting_predicts_the_round_by_round_sum(data, n_estimators, depth):
    # all trees walked together, rounds summed by cumsum: the same floats
    # as adding one tree's prediction after another
    X, seed = data
    y = np.random.default_rng(seed + 3).standard_normal(len(X))
    gb = GradientBoostingRegressor(
        n_estimators=n_estimators, max_depth=depth, seed=seed
    ).fit(X, y)
    probe = np.vstack([X, X[::-1] + 0.125])
    out = np.full(len(probe), gb.init_)
    stages = []
    for tree in gb.estimators_:
        out = out + gb.learning_rate * tree.predict(probe)
        stages.append(out.copy())
    assert np.array_equal(gb.predict(probe), out)
    assert np.array_equal(
        gb.staged_predict(probe), np.array(stages).reshape(-1, len(probe))
    )
