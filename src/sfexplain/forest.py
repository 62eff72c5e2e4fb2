"""Bagged CART forest used as the simulated analyst's classifier family.

Gini-impurity trees with sqrt feature sampling and class-balanced bootstrap
draws (each tree samples equal counts per class, with replacement). Training
rows are put into a canonical order before any random draw, so fitted forests
and their predictions do not depend on the order rows arrive in: a lexsort
by every column, then the label, computed as one stable sort of column 0 and
a lexsort of only the rows tied on it.

All trees of a forest grow together, one depth at a time, from features
sorted once per tree (the presort-once, breadth-first growth of SLIQ, Mehta
et al. 1996). A split sends the samples after its cut in the split feature's
sorted order to the right child, and one stable sort by child number per
depth keeps every feature's order sorted within each child. The split search
and the routing share one set of per-sample indices per depth, and each depth
keeps only its nodes' trees, sizes and anomaly counts and its splits, from
which the node arrays are built once growth stops. Sample ids are
int32 unless a forest holds 2**31 samples or more. A fitted forest is three
flat node arrays, 16 bytes per node:
a feature, a value (the threshold at an internal node, the leaf probability
at a leaf) and a left child whose sibling is the next node. Leaves point to
themselves, so prediction walks every (row, tree) pair down one level per
step, all pairs at once, until no pair stands at an internal node.

Leaf probabilities are Laplace smoothed, (count + 1) / (total + 2), which
keeps predictions strictly inside (0, 1).
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import check_fields, is_integer
from .errors import SfexplainError


class SingleClassTrainingData(SfexplainError):
    """Training data must contain both normal and anomaly rows."""


class MalformedForest(SfexplainError, ValueError):
    """Node arrays, or a saved forest file, that do not describe a valid forest."""


@dataclass(frozen=True)
class ForestConfig:
    tree_count: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.tree_count < 1:
            raise ValueError("tree_count must be >= 1")
        if self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("max_depth and min_leaf must be >= 1")


NODE_ARRAYS = ("feature", "value", "left")
# prob_normal_many walks rows in chunks of at most this many (row, tree)
# pairs, which bounds its per-pair temporaries (about 25 bytes a pair).
PREDICT_CELLS = 1 << 14
_INT32 = np.iinfo(np.int32)


class TreeNodes(NamedTuple):
    """One tree's slice of the forest's node arrays; child indices are forest-wide."""

    feature: np.ndarray
    value: np.ndarray
    left: np.ndarray


def _int32_nodes(name: str, a) -> np.ndarray:
    """a as int32, when it holds integers (not bools) that int32 represents."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise MalformedForest(f"{name} must be an integer array, got dtype {a.dtype}")
    if a.size and (a.min() < _INT32.min or a.max() > _INT32.max):
        raise MalformedForest(f"{name} holds values outside int32")
    return a.astype(np.int32, copy=False)


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive segments of the given sizes."""
    return sizes.cumsum() - sizes


def _siblings(left: np.ndarray, total: np.ndarray) -> np.ndarray:
    """left and total - left of each parent in turn: its two children's counts."""
    out = total.repeat(2)
    out[0::2] = left
    out[1::2] -= left
    return out


def _best_splits(Xs, ys, order, starts, sizes, n_anomaly, m_features, min_leaf, rng):
    """Pick each node's split: the lowest weighted Gini over sampled candidates.

    The nodes are consecutive segments of every row of order (sample ids,
    sorted within each segment by that row's feature). Candidate features are
    drawn in node order. One cost table holds the weighted Gini of every cut,
    one row per candidate slot, +inf where the cut is not between distinct
    values or leaves fewer than min_leaf samples on a side. It is computed in
    place, one buffer per side of the cut, from the anomaly counts left of
    every cut, which are kept for the left children. A candidate's best cut is
    its first minimal one; ties between candidates go to the first drawn, and
    only the chosen candidate's row is searched for the cut. A node splits
    only when the best cost is below its own Gini impurity by more than
    1e-12. The threshold is the midpoint of the values around the cut, or the
    upper value when the midpoint rounds down to the lower one (adjacent
    floats), so every split sends rows to both sides.
    Returns (split, feature, threshold, n_left, a_left, seg, local, pos): the
    indices of the nodes that split, among the given nodes, and for each of
    them its split and the size and anomaly count of its left child, which
    holds the node's first n_left samples in the split feature's order; then,
    for every sample of the given nodes in turn, its node, its index within
    the node and its column in order.
    """
    G, d = len(sizes), order.shape[0]
    candidates = rng.random((G, d)).argsort(axis=1)[:, :m_features]
    node_starts = _starts(sizes)
    local = np.arange(sizes.sum()) - node_starts.repeat(sizes)
    pos = local + starts.repeat(sizes)  # each sample's column in order
    feat = candidates.repeat(sizes, axis=0).T  # (m, P): one row per candidate slot
    # Flat takes gather faster than two-array indexing: order's, then Xs's.
    flat = feat * order.shape[1]
    flat += pos
    sample = order.take(flat)
    np.multiply(sample, d, out=flat, dtype=flat.dtype)
    flat += feat
    xs = Xs.take(flat)
    del feat, flat
    tied = xs[:, :-1] >= xs[:, 1:]  # sorted and finite: not below is equal
    del xs
    # Anomalies up to and including each position, within its node.
    anomalies = ys.take(sample).cumsum(axis=1, dtype=ys.dtype)
    del sample
    anomalies[:, sizes[0] :] -= anomalies[:, node_starts[1:] - 1].repeat(sizes[1:], axis=1)

    # costs holds the left side's anomaly count, then its share p_left, then
    # nl * (2 p_left (1 - p_left)); right does the same for the right side.
    # Each step is one float operation of the weighted Gini, in its order.
    costs = anomalies.astype(float)
    nl = local + 1.0
    n = sizes.repeat(sizes)
    n_right = n - nl
    right = n_anomaly.repeat(sizes) - costs
    right /= np.maximum(n_right, 1.0)  # n - nl >= min_leaf at a valid cut
    costs /= nl
    one_minus = 1.0 - costs
    costs *= 2.0
    costs *= one_minus
    costs *= nl
    np.subtract(1.0, right, out=one_minus)
    right *= 2.0
    right *= one_minus
    right *= n_right
    del one_minus
    costs += right
    del right
    costs /= n
    del n
    costs[:, :-1][tied] = np.inf
    np.copyto(costs, np.inf, where=(nl < min_leaf) | (n_right < min_leaf))

    # Per (slot, node): the lowest cost; per node, the first slot reaching it.
    best_cost = np.minimum.reduceat(costs, node_starts, axis=1)
    chosen = best_cost.argmin(axis=0)
    lowest = best_cost.min(axis=0)
    parent_p = n_anomaly / sizes
    split = (lowest < 2.0 * parent_p * (1.0 - parent_p) - 1e-12).nonzero()[0]
    # The cut is the first position of the chosen row reaching the lowest
    # cost; the left child holds the row's samples up to it.
    hit = costs.take(chosen.repeat(sizes) * len(local) + np.arange(len(local))) == lowest.repeat(sizes)
    del costs
    n_left = np.minimum.reduceat(np.where(hit, local, len(local)), node_starts)[split] + 1
    chosen = chosen[split]
    feature = candidates[split, chosen]
    a_left = anomalies[chosen, node_starts[split] + n_left - 1]
    # The columns of each left child's last sample and the next one.
    last = (starts[split] + n_left - 1)[:, None] + (0, 1)
    lo, hi = Xs[order[feature[:, None], last], feature[:, None]].T
    mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) overflows near the float64 limit
    seg = np.arange(G).repeat(sizes)
    return split, feature, np.where(mid > lo, mid, hi), n_left, a_left, seg, local, pos


def canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rows of X sorted by column 0, then column 1, ..., then y, equal
    rows in their given order: np.lexsort((y, X[:, d-1], ..., X[:, 0])).
    Fitted forests draw through it, so they do not depend on the order rows
    arrive in. One stable sort of column 0 places every row not tied on it;
    the tied rows are lexsorted by all the keys and written back in place,
    since each run of ties keeps its positions."""
    order = X[:, 0].argsort(kind="stable")
    first = X[order, 0]
    same = first[1:] == first[:-1]
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    tied = tied.nonzero()[0]
    rows = order[tied]
    order[tied] = rows[np.lexsort((y[rows], *X[rows].T[::-1]))]
    return order


def grow_forest(
    X: np.ndarray, y: np.ndarray, rows: np.ndarray, config: ForestConfig, rng: np.random.Generator
) -> "BaggedForest":
    """Grow one tree per row of rows (training-row indices: that tree's
    bootstrap), all trees one depth at a time, with candidate features
    drawn from rng. Splits follow _best_splits; a node stays a leaf at
    max_depth, below 2 * min_leaf samples, or when it holds one class.
    A split sends the samples after its cut in the split feature's sorted
    order right, and the split search gives each child's size and anomaly
    count. Samples reach the children by one stable sort per depth of each
    feature's presorted order by child number. Each depth keeps only its
    nodes' trees, sizes and anomaly counts and its splits; the node arrays
    are built from them once every tree has stopped growing."""
    T, n = rows.shape
    d = X.shape[1]
    m_features = min(d, max(1, math.ceil(math.sqrt(d))))
    index = np.int32 if T * n <= _INT32.max else np.int64
    Xs = X[rows.ravel()]  # sample s is training row rows.flat[s], of tree s // n
    ys = y[rows.ravel()].astype(index)
    # Row f of order lists each node's samples sorted by feature f (stable);
    # the nodes of a depth are consecutive segments, in (tree, node) order.
    order = np.argsort(Xs.T.reshape(d, T, n), axis=2, kind="stable").astype(index, copy=False)
    order += (n * np.arange(T, dtype=index))[:, None]
    order = order.reshape(d, T * n)
    sizes = np.full(T, n)
    n_anomaly = ys.reshape(T, n).sum(axis=1)
    tree = np.arange(T)
    # Nodes are numbered depth by depth, in (tree, node) order within a depth.
    levels = []  # (tree, sizes, n_anomaly) of each depth's nodes
    splits = [(np.empty(0, int), np.empty(0, int), np.empty(0))]  # (node, feature, threshold)
    first_id = 0
    for depth in range(config.max_depth + 1):
        levels.append((tree, sizes, n_anomaly))
        grow = ((sizes >= 2 * config.min_leaf) & (n_anomaly > 0) & (n_anomaly < sizes)).nonzero()[0]
        if depth == config.max_depth or not len(grow):
            break
        starts = _starts(sizes)
        split, feature, threshold, n_left, a_left, seg, local, pos = _best_splits(
            Xs, ys, order, starts[grow], sizes[grow], n_anomaly[grow], m_features, config.min_leaf, rng
        )
        parents = grow[split]
        S = len(parents)
        if not S:
            break
        splits.append((first_id + parents, feature, threshold))
        first_id += len(sizes)

        # Route each parent's samples to its children, numbered 2 * parent +
        # goes_right: a sample goes right when it lies after the cut in the
        # split feature's row. A stable sort by child keeps every row
        # presorted; the child numbers take the smallest unsigned dtype, which
        # numpy's stable sort orders by radix sort up to 16 bits.
        if S < len(grow):  # keep only the samples of the nodes that split
            rank = np.full(len(grow), -1)
            rank[split] = np.arange(S)
            seg = rank[seg]
            keep = seg >= 0
            seg, local, pos = seg[keep], local[keep], pos[keep]
        child = np.empty(len(Xs), dtype=np.min_scalar_type(2 * S - 1))
        child[order.take(feature[seg] * order.shape[1] + pos)] = 2 * seg + (local >= n_left[seg])
        if len(pos) < order.shape[1]:
            order = order.take(pos, axis=1)
        by_child = child.take(order).argsort(axis=1, kind="stable")
        by_child += np.arange(0, by_child.size, by_child.shape[1])[:, None]  # into order.flat
        order = order.take(by_child)
        del by_child
        sizes = _siblings(n_left, sizes[parents])
        n_anomaly = _siblings(a_left, n_anomaly[parents])
        tree = tree[parents].repeat(2)

    tree, sizes, n_anomaly = map(np.concatenate, zip(*levels))
    internal, feature, threshold = map(np.concatenate, zip(*splits))
    node_feature = np.full(len(tree), -1)
    node_feature[internal] = feature
    value = (sizes - n_anomaly + 1.0) / (sizes + 2.0)
    value[internal] = threshold
    # Each depth's split nodes' children make up the next depth, in order.
    left = np.arange(len(tree))
    left[internal] = T + 2 * np.arange(len(internal))
    # Store each tree's nodes contiguously, in breadth-first order. Sibling
    # pairs stay adjacent: they are adjacent in the level and share a tree.
    perm = tree.argsort(kind="stable")
    renumber = np.empty_like(perm)
    renumber[perm] = np.arange(len(perm))
    return BaggedForest(feature=node_feature[perm], value=value[perm], left=renumber[left[perm]], n_features=d)


class BaggedForest:
    """Ensemble of CART trees stored as three flat node arrays.

    An internal node holds a feature, a value (its threshold: go left when
    the feature is below it) and a left child greater than its own index;
    the right child is left + 1. A leaf has feature -1, points to itself and
    holds the Laplace-smoothed normal probability of its training samples as
    its value. Trees are contiguous and start at the nodes no other node
    points to. Prediction averages leaf probabilities across trees.
    """

    def __init__(self, feature, value, left, n_features: int):
        self.feature = _int32_nodes("feature", feature)
        value = np.asarray(value)
        if value.dtype.kind != "f":
            raise MalformedForest(f"value must be a float array, got dtype {value.dtype}")
        self.value = value.astype(np.float64, copy=False)
        self.left = _int32_nodes("left", left)
        if not is_integer(n_features):
            raise MalformedForest(f"n_features must be an integer, got {n_features!r}")
        self.n_features = int(n_features)
        size = self.feature.size
        if self.n_features < 1 or size < 1 or any(
            getattr(self, name).shape != (size,) for name in NODE_ARRAYS
        ):
            raise MalformedForest("node arrays must be nonempty, flat and of equal length")
        if np.isnan(self.value).any():
            raise MalformedForest("node values must not be NaN")
        index = np.arange(size)
        internal = self.feature >= 0
        children_ok = np.where(internal, (self.left > index) & (self.left < size - 1), self.left == index)
        if not children_ok.all() or (self.feature >= self.n_features).any() or (self.feature < -1).any():
            raise MalformedForest("node arrays do not describe a forest")
        left = self.left[internal]
        parents = np.bincount(np.concatenate([left, left + 1]), minlength=size)
        if (parents > 1).any():
            raise MalformedForest("a node has more than one parent")
        leaf_values = self.value[~internal]
        if not ((leaf_values > 0.0) & (leaf_values < 1.0)).all():
            raise MalformedForest("leaf probabilities must lie in (0, 1)")
        self.roots = np.flatnonzero(parents == 0)

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int) -> "BaggedForest":
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, not a bool, float or string; got {seed!r}")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or not X.shape[1]:
            raise ValueError(f"training rows must form a 2-D matrix of at least one column, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("training rows must be finite")
        y = np.asarray(y, dtype=bool)
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one per training row")
        if y.all() or not y.any():
            raise SingleClassTrainingData("training data must contain both classes")

        # The draws index the caller's rows through the canonical order, so
        # X is not copied.
        order = canonical_order(X, y)
        normal_rows = order[~y[order]]
        anomaly_rows = order[y[order]]
        per_class = min(len(normal_rows), len(anomaly_rows))
        draws = (config.tree_count, per_class)
        rng = np.random.default_rng(int(seed))
        rows = np.concatenate(
            [
                normal_rows[rng.integers(0, len(normal_rows), size=draws)],
                anomaly_rows[rng.integers(0, len(anomaly_rows), size=draws)],
            ],
            axis=1,
        )
        return grow_forest(X, y, rows, config, rng)

    @property
    def trees(self) -> list[TreeNodes]:
        bounds = [*self.roots.tolist(), len(self.feature)]
        return [
            TreeNodes(*(getattr(self, name)[a:b] for name in NODE_ARRAYS))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

    def prob_normal(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != (self.n_features,):
            raise ValueError(f"expected {self.n_features} features, got {x.shape}")
        return float(self.prob_normal_many(x[None, :])[0])

    def prob_normal_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected rows of {self.n_features} features, got shape {X.shape}")
        rows = max(1, PREDICT_CELLS // len(self.roots))
        if len(X) > rows:
            return np.concatenate([self.prob_normal_many(X[i : i + rows]) for i in range(0, len(X), rows)])
        # Every (row, tree) pair starts at the tree's root and moves down one
        # level per step, to left or, unless the row's value is below the
        # threshold (a NaN goes right), to its sibling left + 1. Leaves point
        # to themselves and children come after their parents, so it ends.
        values = X.ravel()
        first = np.arange(0, values.size, self.n_features)[:, None]  # each row's offset in values
        node = np.tile(self.roots, (len(X), 1))
        while True:
            feature = self.feature.take(node)
            internal = feature >= 0
            if not internal.any():
                return self.value.take(node).sum(axis=1) / len(self.roots)
            goes_right = internal & ~(values.take(first + feature) < self.value.take(node))
            node = self.left.take(node) + goes_right

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the forest as .npz through a temporary file, replaced into place."""
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, n_features=self.n_features, **{name: getattr(self, name) for name in NODE_ARRAYS})
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "BaggedForest":
        try:
            with open(Path(path), "rb") as fh, np.load(fh, allow_pickle=False) as data:
                return cls(**{name: data[name] for name in NODE_ARRAYS}, n_features=data["n_features"][()])
        except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
            raise MalformedForest(f"{path}: not a forest file: {exc}") from exc
