"""Shared test helpers: independent density oracles and synthetic data."""

from __future__ import annotations

import numpy as np
from scipy.stats import multivariate_normal

from sfexplain.dataset import Dataset

# numpy 2.0 renamed trapz to trapezoid, and later releases dropped trapz.
try:
    trapezoid = np.trapezoid
except AttributeError:
    trapezoid = np.trapz


class GaussianOracle:
    """Analytic multivariate normal oracle built on scipy.stats.

    Independent of the package's density code; marginals slice the mean and
    covariance block directly.
    """

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        self.cov = np.asarray(cov, dtype=float)

    def log_marginal(self, x, subset):
        idx = sorted(set(int(j) for j in subset))
        x = np.asarray(x, dtype=float)
        return float(
            multivariate_normal.logpdf(
                x[idx], mean=self.mean[idx], cov=self.cov[np.ix_(idx, idx)]
            )
        )


class MixtureOracle:
    """Analytic mixture-of-normals oracle (weights, means, covs) via scipy."""

    def __init__(self, weights, means, covs):
        self.weights = np.asarray(weights, dtype=float)
        self.means = [np.asarray(m, dtype=float) for m in means]
        self.covs = [np.asarray(c, dtype=float) for c in covs]

    def log_marginal(self, x, subset):
        idx = sorted(set(int(j) for j in subset))
        x = np.asarray(x, dtype=float)
        dens = 0.0
        for w, m, c in zip(self.weights, self.means, self.covs):
            dens += w * multivariate_normal.pdf(x[idx], mean=m[idx], cov=c[np.ix_(idx, idx)])
        return float(np.log(dens))


class ConstantOracle:
    """Returns the same log density for every query; exposes tie handling."""

    def __init__(self, value=-1.0):
        self.value = value

    def log_marginal(self, x, subset):
        return self.value


class CountingOracle:
    """Wraps an oracle and records every queried subset."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[int, ...]] = []

    def log_marginal(self, x, subset):
        self.calls.append(tuple(sorted(set(int(j) for j in subset))))
        return self.inner.log_marginal(x, subset)


class TransformedOracle:
    """Applies a strictly increasing transform to another oracle's outputs."""

    def __init__(self, inner, transform):
        self.inner = inner
        self.transform = transform

    def log_marginal(self, x, subset):
        return self.transform(self.inner.log_marginal(x, subset))


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive-definite covariance matrix."""
    a = rng.normal(size=(n, n))
    return scale * (a @ a.T + n * np.eye(n))


def trapezoid_marginal(weights, means, covs, x, keep, drop, points_per_dim=401):
    """Numerically integrate the analytic joint mixture over the dropped dims.

    Grid spans every component's mean +- 8 marginal standard deviations per
    dropped dimension. Returns the marginal density (not its log) at x[keep].
    """
    keep = list(keep)
    drop = list(drop)
    n = len(means[0])
    axes = []
    for d in drop:
        lows = [m[d] - 8.0 * np.sqrt(c[d, d]) for m, c in zip(means, covs)]
        highs = [m[d] + 8.0 * np.sqrt(c[d, d]) for m, c in zip(means, covs)]
        axes.append(np.linspace(min(lows), max(highs), points_per_dim))
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)

    full = np.empty((grid.shape[0], n))
    full[:, keep] = np.asarray(x, dtype=float)[keep]
    for j, d in enumerate(drop):
        full[:, d] = grid[:, j]

    dens = np.zeros(grid.shape[0])
    for w, m, c in zip(weights, means, covs):
        dens += w * multivariate_normal.pdf(full, mean=m, cov=c)
    dens = dens.reshape([points_per_dim] * len(drop))
    for axis_values in reversed(axes):
        dens = trapezoid(dens, x=axis_values, axis=-1)
    return float(dens)


def make_labeled_dataset(rng, n_normal=200, n_anomaly=20, n_features=3, shift=4.0):
    """Gaussian normals plus anomalies shifted along every feature."""
    normal = rng.normal(size=(n_normal, n_features))
    anomaly = rng.normal(loc=shift, size=(n_anomaly, n_features))
    points = np.vstack([normal, anomaly])
    labels = np.concatenate([np.zeros(n_normal, bool), np.ones(n_anomaly, bool)])
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset(points=points, labels=labels, feature_names=names)


def make_single_deviant_dataset(rng, n_normal=300, n_anomaly=40, n_features=5, deviant=0, shift=8.0):
    """Normals are standard normal; anomalies deviate on exactly one feature."""
    normal = rng.normal(size=(n_normal, n_features))
    anomaly = rng.normal(size=(n_anomaly, n_features))
    anomaly[:, deviant] += shift
    points = np.vstack([normal, anomaly])
    labels = np.concatenate([np.zeros(n_normal, bool), np.ones(n_anomaly, bool)])
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset(points=points, labels=labels, feature_names=names)


def save_five_array_forest(forest, path) -> None:
    """Write a fitted forest in the earlier five-array .npz layout (feature,
    threshold, left, right, prob), which BaggedForest.load rejects."""
    internal = forest.feature >= 0
    index = np.arange(len(forest.feature), dtype=np.int32)
    np.savez(
        path,
        n_features=forest.n_features,
        feature=forest.feature,
        threshold=np.where(internal, forest.value, 0.0),
        left=forest.left,
        right=np.where(internal, forest.left + 1, index),
        prob=np.where(internal, 0.5, forest.value),
    )
