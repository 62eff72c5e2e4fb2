"""Synthetic inputs for the benchmark workloads.

Every workload draws from a mother set: normal points come from six
unit-variance Gaussian blobs whose centres are drawn N(0, 3^2) per feature,
and an anomaly is a normal draw pushed by +-4 on two features chosen at
random for that anomaly.

The mother set and the detector's training sample (the reference set) are
fixed for each dimensionality; the seed draws the benchmark set that is
ranked, explained and evaluated, and the analyst's training pool. The
detector's EM fit therefore sees the same input in every run (see the
README: the fit's assertion fails on a small share of seeded inputs).

Inputs are written as CSV with a ``label`` column and loaded back through
the program's own reader during set-up.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed source of the mother set and the reference set.
REFERENCE_SEED = 20150301
BLOBS = 6
CENTRE_SPREAD = 3.0
ANOMALY_SHIFT = 4.0
DEVIANT_FEATURES = 2
LABEL_COLUMN = "label"
ANOMALY_VALUE = "anomaly"


@dataclass(frozen=True)
class InputSpec:
    """Shape of one workload's inputs."""

    n_features: int
    n_points: int
    n_anomalies: int
    pool_points: int = 0
    pool_anomalies: int = 0
    reference_points: int = 1500
    reference_anomalies: int = 75


def _draw(rng: np.random.Generator, centres: np.ndarray, n_points: int, n_anomalies: int):
    n_features = centres.shape[1]
    points = centres[rng.integers(BLOBS, size=n_points)] + rng.normal(size=(n_points, n_features))
    labels = np.zeros(n_points, dtype=bool)
    labels[:n_anomalies] = True
    for i in range(n_anomalies):
        features = rng.choice(n_features, size=DEVIANT_FEATURES, replace=False)
        points[i, features] += ANOMALY_SHIFT * rng.choice((-1.0, 1.0), size=DEVIANT_FEATURES)
    order = rng.permutation(n_points)
    return points[order], labels[order]


def generate(spec: InputSpec, seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Reference set (fixed), benchmark set and analyst pool (from the seed)."""
    fixed = np.random.default_rng([REFERENCE_SEED, spec.n_features])
    centres = fixed.normal(scale=CENTRE_SPREAD, size=(BLOBS, spec.n_features))
    sets = {"reference": _draw(fixed, centres, spec.reference_points, spec.reference_anomalies)}
    rng = np.random.default_rng(seed)
    sets["bench"] = _draw(rng, centres, spec.n_points, spec.n_anomalies)
    if spec.pool_points:
        sets["pool"] = _draw(rng, centres, spec.pool_points, spec.pool_anomalies)
    return sets


def write_csv(points: np.ndarray, labels: np.ndarray, path: Path) -> None:
    """Write points with repr floats, so the program reads back identical values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(points.shape[1])] + [LABEL_COLUMN])
        for row, is_anomaly in zip(points, labels):
            writer.writerow([repr(float(v)) for v in row] + [ANOMALY_VALUE if is_anomaly else "normal"])


def write_inputs(spec: InputSpec, seed: int, directory: Path) -> dict[str, Path]:
    """Generate and write a workload's CSVs; returns their paths by name."""
    paths = {}
    for name, (points, labels) in generate(spec, seed).items():
        paths[name] = directory / f"{name}.csv"
        write_csv(points, labels, paths[name])
    return paths
