"""Labeled point sets: CSV ingestion and benchmark sampling from mother sets.

A benchmark dataset carries an N x n matrix of real features plus a binary
normal/anomaly label per row. Benchmarks are produced by designating some of
a labeled "mother" dataset's classes as anomalous and sampling normal and
anomaly rows at a requested proportion.

CSV ingest streams records into one flat float buffer that the Dataset or
MotherSet copies once, so loading never holds a list of rows and its memory
peaks at a small multiple of the final N x n matrix.
"""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import check_fields
from .errors import SfexplainError


class EmptyFile(SfexplainError):
    """The CSV file has no header or no data rows."""


class MissingColumn(SfexplainError):
    """The requested label column is absent from the header."""


class NonNumericCell(SfexplainError):
    """A feature cell failed to parse as a finite real."""

    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"row {row}, column {column!r}: {value!r} is not a finite number")


class InsufficientPoints(SfexplainError):
    """The mother set cannot supply the requested number of points."""

    def __init__(self, group: str, needed: int, available: int):
        self.group = group
        self.needed = needed
        self.available = available
        super().__init__(f"need {needed} {group} points, mother set has {available}")


def _point_matrix(points) -> np.ndarray:
    """A read-only float64 copy of points, checked to be a nonempty finite matrix."""
    points = np.array(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
        raise ValueError(f"points must be a nonempty 2D matrix, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite")
    points.setflags(write=False)
    return points


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled point matrix.

    Attributes:
        points: (N, n) float64 matrix, all values finite.
        labels: (N,) bool vector, True marks an anomaly.
        feature_names: n column names, in matrix column order.
    """

    points: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        points = _point_matrix(self.points)
        labels = np.array(self.labels, dtype=bool)
        if labels.shape != (points.shape[0],):
            raise ValueError("labels length must match the number of points")
        if labels.all():
            raise ValueError("dataset must contain at least one normal point")
        names = tuple(str(c) for c in self.feature_names)
        if len(names) != points.shape[1]:
            raise ValueError("feature_names length must match the number of columns")
        labels.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]

    @property
    def n_anomalies(self) -> int:
        return int(self.labels.sum())


@dataclass(frozen=True)
class MotherSet:
    """Multiclass source dataset from which benchmarks are sampled."""

    points: np.ndarray
    classes: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        points = _point_matrix(self.points)
        classes = tuple(str(c) for c in self.classes)
        if len(classes) != points.shape[0]:
            raise ValueError("classes length must match the number of points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "feature_names", tuple(str(c) for c in self.feature_names))


@dataclass(frozen=True)
class BenchmarkSpec:
    """How to carve one benchmark out of a mother set.

    anomaly_fraction is the fraction of the benchmark's rows drawn from the
    anomaly classes; the anomaly count is round-half-up(fraction * size).
    """

    anomaly_classes: frozenset[str] = field(default_factory=frozenset)
    anomaly_fraction: float = 0.05
    target_size: int = 100
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "anomaly_classes", frozenset(str(c) for c in self.anomaly_classes))
        if not self.anomaly_classes:
            raise ValueError("anomaly_classes must be nonempty")
        if not 0.0 < self.anomaly_fraction < 1.0:
            raise ValueError(f"anomaly_fraction must be in (0, 1), got {self.anomaly_fraction}")
        if self.target_size < 1:
            raise ValueError(f"target_size must be positive, got {self.target_size}")


def _read_csv(path: Path, label_column: str) -> tuple[np.ndarray, list[str], tuple[str, ...]]:
    """Stream the records of a labeled CSV into (matrix, class labels, feature names).

    Each record's feature cells go straight into one flat float buffer, and
    equal labels share one string, so no list of rows is ever held. The
    matrix is a view of that buffer. Row numbers count csv records from the
    header's as 1, blank records included.
    """
    with open(path, newline="") as fh:
        records = (item for item in enumerate(csv.reader(fh), start=1) if item[1])
        first = next(records, None)
        if first is None:
            raise EmptyFile(f"{path}: file is empty")
        header = [c.strip() for c in first[1]]
        row_one = next(records, None)
        if row_one is None:
            raise EmptyFile(f"{path}: no data rows")
        if label_column not in header:
            raise MissingColumn(f"{path}: no column named {label_column!r} (header: {header})")
        label_idx = header.index(label_column)
        features = [(i, h) for i, h in enumerate(header) if i != label_idx]
        values = array("d")
        classes: list[str] = []
        labels: dict[str, str] = {}
        for lineno, row in itertools.chain([row_one], records):
            if len(row) != len(header):
                raise NonNumericCell(lineno, "<row>", f"expected {len(header)} cells, got {len(row)}")
            for i, name in features:
                cell = row[i].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise NonNumericCell(lineno, name, cell) from None
                if not math.isfinite(value):
                    raise NonNumericCell(lineno, name, cell)
                values.append(value)
            label = row[label_idx].strip()
            classes.append(labels.setdefault(label, label))
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(classes), len(features))
    return matrix, classes, tuple(name for _, name in features)


def load_csv(path: str | Path, label_column: str, anomaly_values: set[str]) -> Dataset:
    """Load a labeled benchmark CSV.

    Rows whose label cell is in ``anomaly_values`` become anomalies; all other
    rows are normal. Feature order follows column order.
    """
    matrix, classes, names = _read_csv(Path(path), label_column)
    anomaly_values = {str(v) for v in anomaly_values}
    labels = np.array([c in anomaly_values for c in classes], dtype=bool)
    return Dataset(points=matrix, labels=labels, feature_names=names)


def load_mother_csv(path: str | Path, label_column: str) -> MotherSet:
    """Load a multiclass mother CSV, keeping the original class labels."""
    matrix, classes, names = _read_csv(Path(path), label_column)
    return MotherSet(points=matrix, classes=tuple(classes), feature_names=names)


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset as CSV with a label column of anomaly/normal.

    Floats use repr, so a reload is bit-identical.
    """
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["label"])
        for row, is_anomaly in zip(dataset.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + ["anomaly" if is_anomaly else "normal"])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def sample_benchmark_split(
    mother: MotherSet, spec: BenchmarkSpec
) -> tuple[Dataset, Dataset | None]:
    """Sample one benchmark from a mother set; return it and the unsampled remainder.

    Draws without replacement, deterministically for a given seed. The
    benchmark has exactly target_size rows of which round-half-up(fraction *
    size) come from the anomaly classes. The remainder carries the same
    anomaly labeling and is suitable as held-out training data for the
    simulated analyst. It is None when the benchmark consumed the whole
    mother set.
    """
    present = set(mother.classes)
    missing = sorted(spec.anomaly_classes - present)
    if missing:
        raise ValueError(f"anomaly classes not present in mother set: {missing}")
    if spec.anomaly_classes >= present:
        raise ValueError("anomaly_classes must be a proper subset of the mother set's classes")

    is_anomaly_class = np.array([c in spec.anomaly_classes for c in mother.classes], dtype=bool)
    anomaly_pool = np.flatnonzero(is_anomaly_class)
    normal_pool = np.flatnonzero(~is_anomaly_class)

    n_anomaly = _round_half_up(spec.anomaly_fraction * spec.target_size)
    n_normal = spec.target_size - n_anomaly
    if len(anomaly_pool) < n_anomaly:
        raise InsufficientPoints("anomaly", n_anomaly, len(anomaly_pool))
    if len(normal_pool) < n_normal:
        raise InsufficientPoints("normal", n_normal, len(normal_pool))

    rng = np.random.default_rng(spec.seed)
    chosen_anomaly = rng.choice(anomaly_pool, size=n_anomaly, replace=False)
    chosen_normal = rng.choice(normal_pool, size=n_normal, replace=False)
    chosen = np.sort(np.concatenate([chosen_anomaly, chosen_normal]))

    benchmark = Dataset(
        points=mother.points[chosen],
        labels=is_anomaly_class[chosen],
        feature_names=mother.feature_names,
    )

    rest_mask = np.ones(len(mother.classes), dtype=bool)
    rest_mask[chosen] = False
    rest_idx = np.flatnonzero(rest_mask)
    rest = None
    if len(rest_idx) > 0 and not is_anomaly_class[rest_idx].all():
        rest = Dataset(
            points=mother.points[rest_idx],
            labels=is_anomaly_class[rest_idx],
            feature_names=mother.feature_names,
        )
    return benchmark, rest
