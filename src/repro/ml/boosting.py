"""Gradient boosting and the paper's multi-output surrogate (MO-GBM).

``GradientBoostingRegressor`` boosts shallow CART trees on squared loss;
``GradientBoostingClassifier`` boosts on logistic loss (one tree per class
per round, softmax for K > 2). ``MultiOutputGradientBoosting`` mirrors
scikit-learn's ``MultiOutputRegressor(GradientBoostingRegressor)`` — the
estimator the paper adopts ("we use a multi-output Gradient Boosting Model
[34] that allows us to obtain the performance vector by a single call",
Section 2): one boosted ensemble per output dimension behind a single
``predict`` returning the full performance vector.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from ..rng import spawn_rng
from .base import Classifier, Model, Regressor, sigmoid, softmax
from .tree import DecisionTreeRegressor, TreeStack


class GradientBoostingRegressor(Regressor):
    """Squared-loss gradient boosting over shallow regression trees."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = float(subsample)
        self.estimators_: list[DecisionTreeRegressor] = []
        self.init_: float = 0.0
        self.feature_importances_: np.ndarray | None = None
        self.train_losses_: list[float] = []

    def _fit(self, X, y, rng):
        y = y.astype(float)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        self.estimators_ = []
        self.train_losses_ = []
        importances = np.zeros(X.shape[1])
        n = X.shape[0]
        for t in range(self.n_estimators):
            residual = y - current
            tree_rng = spawn_rng(self.seed, "gb-tree", t)
            if self.subsample < 1.0:
                size = max(1, int(self.subsample * n))
                idx = np.sort(tree_rng.choice(n, size=size, replace=False))
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=int(tree_rng.integers(2**31)),
            )
            tree._fit_checked(X[idx], residual[idx])
            current = current + self.learning_rate * tree._predict(X)
            self.estimators_.append(tree)
            importances += tree.feature_importances_
            self.train_losses_.append(float(np.mean((y - current) ** 2)))
        self._stack = TreeStack(self.estimators_)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    def _stages(self, X) -> np.ndarray:
        """(n_estimators + 1, n): the prediction after 0, 1, ... rounds.

        Row-wise ``cumsum`` adds the rounds in order, the same sums as
        accumulating one tree at a time."""
        steps = np.empty((self._stack.n_trees + 1, X.shape[0]))
        steps[0] = self.init_
        steps[1:] = self.learning_rate * self._stack.predict(X)
        return steps.cumsum(axis=0)

    def _predict(self, X):
        return self._stages(X)[-1]

    def staged_predict(self, X) -> np.ndarray:
        """(n_estimators, n) predictions after each boosting round."""
        return self._stages(self._check_features(X))[1:]

    def _cost(self, n, d):
        return sum(t.training_cost_ for t in self.estimators_)


class GradientBoostingClassifier(Classifier):
    """Logistic-loss gradient boosting (binary) / softmax boosting (K>2)."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.estimators_: list[list[DecisionTreeRegressor]] = []
        self.init_raw_: np.ndarray | None = None
        self.feature_importances_: np.ndarray | None = None

    def _fit(self, X, codes, rng):
        n = X.shape[0]
        k = len(self.classes_)
        one_hot = np.zeros((n, k))
        one_hot[np.arange(n), codes.astype(int)] = 1.0
        prior = np.clip(one_hot.mean(axis=0), 1e-6, 1.0)
        self.init_raw_ = np.log(prior)
        raw = np.tile(self.init_raw_, (n, 1))
        self.estimators_ = []
        importances = np.zeros(X.shape[1])
        for t in range(self.n_estimators):
            proba = softmax(raw)
            round_trees: list[DecisionTreeRegressor] = []
            for j in range(k):
                residual = one_hot[:, j] - proba[:, j]
                tree = DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                    seed=int(spawn_rng(self.seed, "gbc", t, j).integers(2**31)),
                )
                tree._fit_checked(X, residual)
                raw[:, j] += self.learning_rate * tree._predict(X)
                round_trees.append(tree)
                importances += tree.feature_importances_
            self.estimators_.append(round_trees)
        total = importances.sum()
        self.feature_importances_ = importances / total if total > 0 else importances

    def _raw(self, X) -> np.ndarray:
        raw = np.tile(self.init_raw_, (X.shape[0], 1))
        for round_trees in self.estimators_:
            for j, tree in enumerate(round_trees):
                raw[:, j] += self.learning_rate * tree._predict(X)
        return raw

    def _predict_proba(self, X):
        return softmax(self._raw(X))

    def _cost(self, n, d):
        return sum(
            t.training_cost_ for round_trees in self.estimators_ for t in round_trees
        )


class MultiOutputGradientBoosting(Model):
    """MO-GBM: one boosted ensemble per output, one ``predict`` call.

    ``fit(X, Y)`` with ``Y`` of shape (n, k); ``predict(X)`` returns (n, k).
    This is the paper's default performance estimator backbone.
    """

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = max_depth
        self.estimators_: list[GradientBoostingRegressor] = []
        self.n_outputs_: int = 0

    def fit(self, X, Y) -> "MultiOutputGradientBoosting":
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.shape[0] != Y.shape[0]:
            raise ModelError(f"X rows {X.shape[0]} != Y rows {Y.shape[0]}")
        self.n_outputs_ = Y.shape[1]
        self.estimators_ = []
        for j in range(self.n_outputs_):
            gb = GradientBoostingRegressor(
                n_estimators=self.n_estimators,
                learning_rate=self.learning_rate,
                max_depth=self.max_depth,
                seed=int(spawn_rng(self.seed, "mo-gbm", j).integers(2**31)),
            )
            gb.fit(X, Y[:, j])
            self.estimators_.append(gb)
        self.training_cost_ = sum(e.training_cost_ for e in self.estimators_)
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        """(n, n_outputs) predictions — one call covers all measures."""
        if not self._fitted:
            raise ModelError("MultiOutputGradientBoosting is not fitted")
        X = np.asarray(X, dtype=float)
        return np.column_stack([e.predict(X) for e in self.estimators_])

    # Model abstract hooks are unused because fit/predict are overridden,
    # but must exist; they delegate to the overridden implementations.
    def _fit(self, X, y, rng):  # pragma: no cover - never called
        raise NotImplementedError

    def _predict(self, X):  # pragma: no cover - never called
        raise NotImplementedError

    def _cost(self, n, d):  # pragma: no cover - never called
        return self.training_cost_


def sigmoid_calibrate(raw: np.ndarray) -> np.ndarray:
    """Squash raw scores into (0, 1) — handy for estimator outputs that must
    stay inside the paper's normalized measure range."""
    return sigmoid(raw)
