"""CART decision trees (the base learner for forests and boosting).

Standard top-down induction with exact split search. Classification splits
minimize Gini impurity; regression splits minimize within-child variance.

Split search is batched per node, over every candidate feature at once:
one stable ``argsort(axis=0)`` sorts all feature columns, column-wise
``cumsum`` gives the prefix statistics (of ``y`` and ``y**2``, or of the
one-hot class matrix), and one elementwise expression gives the gains of
all candidate splits of all features. A split position is a candidate
when it separates two distinct values and leaves ``min_samples_leaf`` rows
on each side. That is O(d · n log n) work per node in a fixed number of
numpy calls, instead of one Python call per feature.

Tie-chain rule (determinism): split positions are scanned in ascending
order and a position replaces the current best only when
``gain > best + 1e-12``, starting from ``best = 0.0``; each feature's
winner then goes through the same scan in feature order. A fixed dataset
therefore always yields the same tree, and near-ties resolve to the lowest
feature index / smallest threshold. :func:`_tie_chain` reproduces the
scan exactly without running it position by position (see there).

The arithmetic is the scalar scan's, operation for operation: column
cumsums accumulate in row order as 1-D ones do, squares of prefix sums go
through C ``pow`` (:func:`_square`), and the Gini sums reduce over a
contiguous class axis as a 1-D ``np.sum`` does. So trees, thresholds, leaf
values, importances and ``split_work`` are bit-identical to the scalar
per-feature reference kept in ``tests/cart_reference.py``.

A fitted tree is stored as flat node arrays; prediction walks all rows one
level at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import Classifier, Regressor, subsample_features

#: The margin a split must beat the current best by (the tie-chain rule).
_TIE = 1e-12


@dataclass(slots=True)
class _GrowthStats:
    """Book-keeping for cost accounting and introspection."""

    node_count: int = 0
    leaf_count: int = 0
    max_depth_seen: int = 0
    split_work: float = 0.0
    importances: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass(slots=True)
class _NodeTable:
    """Fitted trees as flat node arrays, numbered in depth-first
    (pre-)order. Node ``i`` splits on ``feature[i]`` at ``threshold[i]``
    into ``left[i]`` / ``right[i]``, or is a leaf (``feature[i] == -1``)
    predicting ``value[i]`` whose children are itself, so a walk that
    reaches it stays there. ``depth`` bounds every root-to-leaf path."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int

    def descend(self, nodes: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The leaves that ``nodes`` (ids, last axis over the rows of
        ``X``) reach: every entry moves one level per step, all at once."""
        rows = np.arange(X.shape[0])
        for _ in range(self.depth):
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
        return nodes


def _square(a: np.ndarray) -> np.ndarray:
    """``a ** 2`` computed as C ``pow(a, 2)``, elementwise.

    The gain formula was defined on numpy scalars, whose ``** 2`` calls
    ``pow``; an array's ``** 2`` is ``a * a``, which differs from ``pow``
    in the last bit for about one input in a thousand. ``float_power``
    runs ``pow`` on every element.
    """
    return np.float_power(a, 2.0)


def _regression_gains(ys: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Variance-reduction gains of the splits ``flat``.

    ``ys`` (n, m) holds the targets in each column's sorted order; split
    ``r * m + c`` keeps the first ``r + 1`` rows of column ``c`` on the
    left.
    """
    n, m = ys.shape
    prefix = ys.cumsum(axis=0)
    prefix_sq = (ys**2).cumsum(axis=0)
    cols = flat % m
    total, total_sq = prefix[-1].take(cols), prefix_sq[-1].take(cols)
    parent_sse = total_sq - _square(total) / n
    left_n = (flat // m + 1).astype(float)
    left, left_sq = prefix.take(flat), prefix_sq.take(flat)
    left_sse = left_sq - _square(left) / left_n
    right_sse = (total_sq - left_sq) - _square(total - left) / (n - left_n)
    return parent_sse - left_sse - right_sse


def _gini_gains(codes: np.ndarray, flat: np.ndarray, n_classes: int) -> np.ndarray:
    """Gini gains of the splits ``flat``; ``codes`` (n, m) holds the class
    codes in each column's sorted order (splits as in
    :func:`_regression_gains`)."""
    n, m = codes.shape
    one_hot = (codes[:, :, None] == np.arange(n_classes)).astype(float)
    prefix = one_hot.cumsum(axis=0).reshape(n * m, n_classes)
    totals = prefix[(n - 1) * m + flat % m]
    parent_gini = 1.0 - np.sum((totals / n) ** 2, axis=-1)
    left_n = (flat // m + 1).astype(float)
    left = prefix[flat]
    gini_l = 1.0 - np.sum((left / left_n[:, None]) ** 2, axis=-1)
    right_n = n - left_n
    gini_r = 1.0 - np.sum(((totals - left) / right_n[:, None]) ** 2, axis=-1)
    return parent_gini - (left_n / n) * gini_l - (right_n / n) * gini_r


def _scan(gains) -> int:
    """The tie-chain scan itself, over a sequence of gains: the index of
    the last gain kept, -1 if none."""
    best, kept = 0.0, -1
    for i, gain in enumerate(gains):
        if gain > best + _TIE:
            best, kept = gain, i
    return kept


def _tie_chain(gains: np.ndarray) -> np.ndarray:
    """Per column of ``gains``, the row :func:`_scan` settles on (-1: none).

    Two facts let the scan of many columns run batched:

    * when the column maximum ``M`` exceeds 1e-12 and no other gain ``g``
      has ``g + 1e-12 >= M``, every earlier best is below ``M - 1e-12``
      and no later gain can beat ``M``: the answer is ``M``'s row;
    * otherwise only strict running-max record breakers can be kept (a
      gain that does not beat every earlier one is at most the best of
      its time plus 1e-12), so the scan is replayed over those alone.
    """
    top = gains.max(axis=0)
    rows = np.where(top > _TIE, gains.argmax(axis=0), -1)
    near = np.count_nonzero(gains + _TIE >= top, axis=0)
    for col in ((top > _TIE) & (near > 1)).nonzero()[0]:
        column = gains[:, col]
        record = np.maximum.accumulate(column)
        breakers = np.concatenate(([0], (column[1:] > record[:-1]).nonzero()[0] + 1))
        rows[col] = breakers[_scan(column[breakers].tolist())]
    return rows


def _best_split(
    x: np.ndarray, y: np.ndarray, min_leaf: int, n_classes: int
) -> tuple[float, int, float]:
    """Best ``(gain, column, threshold)`` over the columns of ``x``.

    ``y`` holds regression targets, or class codes when ``n_classes`` is
    set. ``column`` is -1 (gain 0.0, threshold NaN) when no split gains.
    Each column's split positions go through the tie-chain scan, then the
    columns' winners do, in column order.
    """
    n, m = x.shape
    order = x.argsort(axis=0, kind="mergesort")
    columns = np.arange(m)
    xs = x[order, columns]
    # row r: the split keeping r + 1 rows left; min_samples_leaf each side
    valid = xs[:-1] != xs[1:]
    valid[:max(min_leaf - 1, 0)] = False
    valid[max(n - min_leaf, 0):] = False
    flat = valid.ravel().nonzero()[0]
    if n_classes:
        found = _gini_gains(y[order], flat, n_classes)
    else:
        found = _regression_gains(y[order], flat)
    gains = np.full(valid.shape, -np.inf)
    gains.ravel()[flat] = found
    picks = _tie_chain(gains)
    per_feature = np.where(picks >= 0, gains[picks, columns], 0.0)
    column = _scan(per_feature.tolist())
    if column < 0:
        return 0.0, -1, np.nan
    row = picks[column]
    threshold = (xs[row, column] + xs[row + 1, column]) / 2.0
    return per_feature[column], column, threshold


class _TreeCore:
    """Shared growth/predict machinery for both tree flavours."""

    def __init__(
        self,
        max_depth: int,
        min_samples_split: int,
        min_samples_leaf: int,
        max_features,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.stats_ = _GrowthStats()

    def grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rng: np.random.Generator,
        n_classes: int = 0,
    ) -> None:
        """Grow on ``(X, y)``; ``n_classes > 0`` grows a Gini tree over
        integer class codes ``y``, 0 a variance tree."""
        self.stats_ = _GrowthStats(importances=np.zeros(X.shape[1]))
        self._nodes: list[list] = [[], [], [], [], []]
        self._grow_node(X, y, np.arange(X.shape[0]), 0, rng, n_classes)
        feature, threshold, left, right, value = self._nodes
        del self._nodes
        self.nodes = _NodeTable(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value),
            depth=self.stats_.max_depth_seen,
        )

    @staticmethod
    def _leaf_value(y_node: np.ndarray, n_classes: int) -> np.ndarray:
        if n_classes:
            counts = np.bincount(y_node.astype(int), minlength=n_classes)
            return counts / counts.sum()
        return np.array([y_node.mean()])

    def _grow_node(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
        n_classes: int,
    ) -> int:
        """Grow the subtree over rows ``idx``; returns its root's id."""
        stats = self.stats_
        stats.node_count += 1
        stats.max_depth_seen = max(stats.max_depth_seen, depth)
        feature, threshold, left, right, value = self._nodes
        node = len(feature)
        y_node = y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(node)
        right.append(node)
        value.append(self._leaf_value(y_node, n_classes))
        if (
            depth >= self.max_depth
            or len(idx) < self.min_samples_split
            or (n_classes and len(np.unique(y_node)) == 1)
            or (not n_classes and np.ptp(y_node) == 0.0)
        ):
            stats.leaf_count += 1
            return node
        features = subsample_features(X.shape[1], self.max_features, rng)
        # integer increments: the float total is exact in any grouping
        stats.split_work += len(idx) * len(features)
        x_node = X[idx] if len(features) == X.shape[1] else X[np.ix_(idx, features)]
        gain, column, split_at = _best_split(
            x_node,
            y_node.astype(int) if n_classes else y_node,
            self.min_samples_leaf,
            n_classes,
        )
        if column < 0 or not np.isfinite(split_at):
            stats.leaf_count += 1
            return node
        best = int(features[column])
        mask = X[idx, best] <= split_at
        left_idx, right_idx = idx[mask], idx[~mask]
        if len(left_idx) < self.min_samples_leaf or len(right_idx) < self.min_samples_leaf:
            stats.leaf_count += 1
            return node
        stats.importances[best] += gain * len(idx)
        feature[node] = best
        threshold[node] = float(split_at)
        left[node] = self._grow_node(X, y, left_idx, depth + 1, rng, n_classes)
        right[node] = self._grow_node(X, y, right_idx, depth + 1, rng, n_classes)
        return node

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Per-row leaf prediction vectors, stacked (n, k)."""
        nodes = self.nodes
        return nodes.value[nodes.descend(np.zeros(X.shape[0], dtype=np.intp), X)]

    def normalized_importances(self) -> np.ndarray:
        imp = self.stats_.importances
        total = imp.sum()
        return imp / total if total > 0 else imp


class TreeStack:
    """Fitted regression trees as one node table: ``predict`` walks every
    tree and every row together, one level per step."""

    def __init__(self, trees: list["DecisionTreeRegressor"]):
        self.n_trees = len(trees)
        if not trees:
            return
        tables = [tree._core_.nodes for tree in trees]
        sizes = [len(table.feature) for table in tables]
        self._roots = np.cumsum([0] + sizes[:-1])
        shift = np.repeat(self._roots, sizes)  # node ids are per tree
        self._table = _NodeTable(
            feature=np.concatenate([t.feature for t in tables]),
            threshold=np.concatenate([t.threshold for t in tables]),
            left=np.concatenate([t.left for t in tables]) + shift,
            right=np.concatenate([t.right for t in tables]) + shift,
            value=np.concatenate([t.value for t in tables]),
            depth=max(t.depth for t in tables),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(n_trees, n) per-tree predictions on a checked ``X``."""
        if not self.n_trees:
            return np.empty((0, X.shape[0]))
        start = np.repeat(self._roots[:, None], X.shape[0], axis=1)
        return self._table.value[self._table.descend(start, X), 0]


class DecisionTreeRegressor(Regressor):
    """CART regression tree with exact variance-reduction splits."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, y, rng):
        self._core_ = _TreeCore(
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features,
        )
        self._core_.grow(X, y.astype(float), rng)
        self.feature_importances_ = self._core_.normalized_importances()

    def _predict(self, X):
        return self._core_.predict_values(X)[:, 0]

    def _cost(self, n, d):
        return self._core_.stats_.split_work * np.log2(max(n, 2))

    @property
    def node_count(self) -> int:
        return self._core_.stats_.node_count

    @property
    def depth(self) -> int:
        return self._core_.stats_.max_depth_seen


class DecisionTreeClassifier(Classifier):
    """CART classification tree with exact Gini splits."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, y, rng):
        self._core_ = _TreeCore(
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features,
        )
        self._core_.grow(X, y, rng, n_classes=len(self.classes_))
        self.feature_importances_ = self._core_.normalized_importances()

    def _predict_proba(self, X):
        return self._core_.predict_values(X)

    def _cost(self, n, d):
        return self._core_.stats_.split_work * np.log2(max(n, 2))

    @property
    def node_count(self) -> int:
        return self._core_.stats_.node_count

    @property
    def depth(self) -> int:
        return self._core_.stats_.max_depth_seen
