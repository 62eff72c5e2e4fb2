"""Bagged CART forest used as the simulated analyst's classifier family.

Gini-impurity trees with sqrt feature sampling and class-balanced bootstrap
draws (each tree samples equal counts per class, with replacement). Training
rows are put into a canonical order before any random draw, so fitted forests
and their predictions do not depend on the order rows arrive in.

Leaf probabilities are Laplace smoothed, (count + 1) / (total + 2), which
keeps predictions strictly inside (0, 1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SfexplainError


class SingleClassTrainingData(SfexplainError):
    """Training data must contain both normal and anomaly rows."""


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: str = "sqrt"
    seed: int = 0

    def __post_init__(self):
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")
        if self.features_per_split != "sqrt":
            raise ValueError(f"unsupported features_per_split rule: {self.features_per_split!r}")

    def to_dict(self) -> dict:
        return {
            "tree_count": self.tree_count,
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ForestConfig":
        unknown = set(raw) - {"tree_count", "max_depth", "min_leaf", "features_per_split", "seed"}
        if unknown:
            raise ValueError(f"unknown forest config keys: {sorted(unknown)}")
        return cls(**raw)


class _Tree:
    """Flat-array binary tree. Internal nodes hold (feature, threshold);
    every node holds its training class counts, used at leaves."""

    __slots__ = ("feature", "threshold", "left", "right", "n_normal", "n_anomaly")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.n_normal: list[int] = []
        self.n_anomaly: list[int] = []

    def add_node(self, n_normal: int, n_anomaly: int) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.n_normal.append(n_normal)
        self.n_anomaly.append(n_anomaly)
        return len(self.feature) - 1

    def leaf_for(self, x: np.ndarray) -> int:
        node = 0
        while self.feature[node] >= 0:
            node = self.left[node] if x[self.feature[node]] < self.threshold[node] else self.right[node]
        return node

    def prob_normal(self, x: np.ndarray) -> float:
        node = self.leaf_for(x)
        n0, n1 = self.n_normal[node], self.n_anomaly[node]
        return (n0 + 1.0) / (n0 + n1 + 2.0)


def _gini_costs(counts_left: np.ndarray, n_left: np.ndarray, total_anomaly: int, n: int):
    """Weighted Gini impurity of every candidate split, vectorized."""
    n_right = n - n_left
    a_left = counts_left
    a_right = total_anomaly - a_left
    p_left = a_left / n_left
    p_right = a_right / n_right
    gini_left = 2.0 * p_left * (1.0 - p_left)
    gini_right = 2.0 * p_right * (1.0 - p_right)
    return (n_left * gini_left + n_right * gini_right) / n


def _grow(
    tree: _Tree,
    X: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    depth: int,
    max_depth: int,
    min_leaf: int,
    m_features: int,
    rng: np.random.Generator,
) -> int:
    n = len(rows)
    n_anomaly = int(y[rows].sum())
    n_normal = n - n_anomaly
    node = tree.add_node(n_normal, n_anomaly)
    if depth >= max_depth or n < 2 * min_leaf or n_anomaly == 0 or n_normal == 0:
        return node

    parent_p = n_anomaly / n
    parent_gini = 2.0 * parent_p * (1.0 - parent_p)
    candidates = rng.choice(X.shape[1], size=m_features, replace=False)

    best_cost = parent_gini - 1e-12
    best_feature = -1
    best_threshold = 0.0
    for f in candidates:
        xs = X[rows, f]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[rows[order]]
        cut = np.arange(min_leaf, n - min_leaf + 1)
        if len(cut) == 0:
            continue
        distinct = xs_sorted[cut - 1] < xs_sorted[cut]
        cut = cut[distinct]
        if len(cut) == 0:
            continue
        anomaly_prefix = np.cumsum(ys_sorted)
        costs = _gini_costs(anomaly_prefix[cut - 1].astype(float), cut.astype(float), n_anomaly, n)
        best_here = int(np.argmin(costs))
        if costs[best_here] < best_cost:
            best_cost = float(costs[best_here])
            best_feature = int(f)
            p = cut[best_here]
            best_threshold = 0.5 * (float(xs_sorted[p - 1]) + float(xs_sorted[p]))

    if best_feature < 0:
        return node

    goes_left = X[rows, best_feature] < best_threshold
    left = _grow(tree, X, y, rows[goes_left], depth + 1, max_depth, min_leaf, m_features, rng)
    right = _grow(tree, X, y, rows[~goes_left], depth + 1, max_depth, min_leaf, m_features, rng)
    tree.feature[node] = best_feature
    tree.threshold[node] = best_threshold
    tree.left[node] = left
    tree.right[node] = right
    return node


class BaggedForest:
    """Ensemble of CART trees over a fixed training matrix.

    fit() canonicalizes row order, then trains tree t from a class-balanced
    bootstrap drawn with seed (seed, t). Prediction averages Laplace-smoothed
    leaf probabilities across trees.
    """

    def __init__(self, trees: list[_Tree], n_features: int):
        self.trees = trees
        self.n_features = n_features

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int | None = None) -> "BaggedForest":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(y, dtype=bool)
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one per training row")
        if y.all() or not y.any():
            raise SingleClassTrainingData("training data must contain both classes")
        if seed is None:
            seed = config.seed

        # Canonical row order: sort by feature values then label, so fitted
        # forests are invariant to the incoming row order.
        order = np.lexsort((y,) + tuple(X[:, c] for c in range(X.shape[1] - 1, -1, -1)))
        X = X[order]
        y = y[order]

        normal_rows = np.flatnonzero(~y)
        anomaly_rows = np.flatnonzero(y)
        per_class = min(len(normal_rows), len(anomaly_rows))
        d = X.shape[1]
        m_features = min(d, max(1, math.ceil(math.sqrt(d))))

        trees: list[_Tree] = []
        for t in range(config.tree_count):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), t]))
            rows = np.concatenate(
                [
                    normal_rows[rng.integers(0, len(normal_rows), size=per_class)],
                    anomaly_rows[rng.integers(0, len(anomaly_rows), size=per_class)],
                ]
            )
            tree = _Tree()
            _grow(tree, X, y, rows, 0, config.max_depth, config.min_leaf, m_features, rng)
            trees.append(tree)
        return cls(trees, d)

    def prob_normal(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got {x.shape}")
        return float(np.mean([tree.prob_normal(x) for tree in self.trees]))

    def prob_normal_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.array([self.prob_normal(row) for row in X])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n_features": self.n_features,
            "trees": [
                {
                    "feature": tree.feature,
                    "threshold": tree.threshold,
                    "left": tree.left,
                    "right": tree.right,
                    "n_normal": tree.n_normal,
                    "n_anomaly": tree.n_anomaly,
                }
                for tree in self.trees
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "BaggedForest":
        trees = []
        for raw in payload["trees"]:
            tree = _Tree()
            tree.feature = [int(v) for v in raw["feature"]]
            tree.threshold = [float(v) for v in raw["threshold"]]
            tree.left = [int(v) for v in raw["left"]]
            tree.right = [int(v) for v in raw["right"]]
            tree.n_normal = [int(v) for v in raw["n_normal"]]
            tree.n_anomaly = [int(v) for v in raw["n_anomaly"]]
            trees.append(tree)
        return cls(trees, int(payload["n_features"]))

    def save(self, path: str | Path) -> None:
        with open(Path(path), "w") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path: str | Path) -> "BaggedForest":
        with open(Path(path)) as fh:
            return cls.from_json(json.load(fh))
