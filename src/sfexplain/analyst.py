"""The simulated analyst and its effort metrics.

The analyst answers "how likely is this point normal, seeing only these
features?" by training one discriminative forest per feature subset, on
demand, with an at-most-once cache. Revealing an explanation's features one
at a time yields a certainty curve; the minimum feature prefix is how many
features must be revealed before certainty drops to a detection threshold.
``expected_mfp`` is the one place that rule is defined.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .explain import Sfe
from .forest import BaggedForest, ForestConfig, MalformedForest, SingleClassTrainingData
from .seeding import derive_seed

__all__ = [
    "AnalystModel",
    "CertaintyCurve",
    "ThresholdDistribution",
    "SingleClassTrainingData",
    "certainty_curve",
    "expected_mfp",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CertaintyCurve:
    """Analyst normality probabilities after revealing 1, 2, ... features."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise ValueError("certainty values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ThresholdDistribution:
    """Discrete distribution over detection thresholds in [0, 0.5]."""

    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        support = tuple((float(t), float(p)) for t, p in self.support)
        if any(isinstance(v, bool) for pair in self.support for v in pair):
            raise ValueError("thresholds and probabilities must be numbers, not bools")
        if not support:
            raise ValueError("threshold distribution needs at least one value")
        if any(not 0.0 <= t <= 0.5 for t, _ in support):
            raise ValueError("thresholds must lie in [0, 0.5]")
        if any(p < 0.0 for _, p in support):
            raise ValueError("probabilities must be nonnegative")
        total = sum(p for _, p in support)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"threshold probabilities must sum to 1, got {total}")
        object.__setattr__(self, "support", support)

    @classmethod
    def uniform(cls, taus: Iterable[float] = (0.1, 0.2, 0.3)) -> "ThresholdDistribution":
        taus = tuple(taus)
        return cls(support=tuple((t, 1.0 / len(taus)) for t in taus))


def canonical_subset(subset: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted({int(j) for j in subset}))


class AnalystModel:
    """Per-subset classifier cache over a fixed labeled training set.

    Each subset's forest trains on the training data projected onto the
    subset, with a seed derived from (analyst seed, subset), so results do
    not depend on query order. The cache is thread safe: concurrent misses
    for the same subset coalesce onto a single training run.

    When cache_dir is set, fitted classifiers persist to disk, one .npz file
    per subset, keyed by a hash of the training data taken at construction
    plus the canonical subset, so repeated evaluations skip retraining. A
    cache file that cannot be read, or holds a forest of the wrong width, is
    logged, retrained and overwritten.
    """

    def __init__(
        self,
        training_data: Dataset,
        forest_config: ForestConfig | None = None,
        seed: int | None = None,
        cache_dir: str | Path | None = None,
    ):
        self.training_data = training_data
        self.forest_config = forest_config or ForestConfig()
        self.seed = self.forest_config.seed if seed is None else int(seed)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        digest.update(training_data.points.tobytes())
        digest.update(training_data.labels.tobytes())
        digest.update(repr(asdict(self.forest_config)).encode())
        digest.update(str(self.seed).encode())
        self._fingerprint = digest.hexdigest()[:16]
        self._cache: dict[tuple[int, ...], BaggedForest] = {}
        self._pending: dict[tuple[int, ...], threading.Event] = {}
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.trained_count = 0
        self.loaded_count = 0

    @property
    def n_features(self) -> int:
        return self.training_data.n_features

    def _cache_path(self, key: tuple[int, ...]) -> Path:
        return self.cache_dir / f"{self._fingerprint}_{'-'.join(map(str, key))}.npz"

    def _load(self, path: Path, width: int) -> BaggedForest | None:
        """The cached forest at path, or None when it is missing or unusable."""
        if not path.exists():
            return None
        try:
            forest = BaggedForest.load(path)
        except MalformedForest as exc:
            logger.warning("retraining: %s", exc)
            return None
        if forest.n_features != width:
            logger.warning("retraining: %s has %d features, expected %d", path, forest.n_features, width)
            return None
        with self._lock:
            self.loaded_count += 1
        return forest

    def _train(self, key: tuple[int, ...]) -> BaggedForest:
        path = self._cache_path(key) if self.cache_dir is not None else None
        forest = self._load(path, len(key)) if path is not None else None
        if forest is not None:
            return forest
        forest = BaggedForest.fit(
            self.training_data.points[:, key],
            self.training_data.labels,
            self.forest_config,
            seed=derive_seed(self.seed, *key),
        )
        with self._lock:
            self.trained_count += 1
        if path is not None:
            forest.save(path)
        return forest

    def classifier_for(self, subset: Iterable[int]) -> BaggedForest:
        """Return the forest for a feature subset, training it at most once."""
        key = canonical_subset(subset)
        if not key:
            raise ValueError("feature subset must be nonempty")
        if key[0] < 0 or key[-1] >= self.n_features:
            raise ValueError(f"feature indices must lie in [0, {self.n_features})")
        while True:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self.cache_hits += 1
                    return cached
                event = self._pending.get(key)
                if event is None:
                    event = threading.Event()
                    self._pending[key] = event
                    break
            event.wait()
        try:
            forest = self._train(key)
            with self._lock:
                self._cache[key] = forest
            return forest
        finally:
            with self._lock:
                del self._pending[key]
            event.set()

    def prob_normal(self, x: np.ndarray, subset: Iterable[int]) -> float:
        """P(normal | the point's values on the subset), in (0, 1)."""
        key = canonical_subset(subset)
        forest = self.classifier_for(key)
        x = np.asarray(x, dtype=np.float64)
        return forest.prob_normal(x[list(key)])


def certainty_curve(
    analyst: AnalystModel, x: np.ndarray, explanation: Sfe, k: int | None = None
) -> CertaintyCurve:
    """Analyst certainty after revealing each successive explanation prefix."""
    if k is None:
        k = len(explanation)
    if not 1 <= k <= len(explanation):
        raise ValueError(f"prefix length must be in [1, {len(explanation)}], got {k}")
    values = [analyst.prob_normal(x, explanation.order[: i + 1]) for i in range(k)]
    return CertaintyCurve(values=tuple(values))


def expected_mfp(
    values: Sequence[float], dist: ThresholdDistribution, strict: bool = False
) -> tuple[float, bool]:
    """Threshold-averaged minimum feature prefix of a certainty sequence.

    For each threshold tau, the MFP is the first 1-based position whose
    certainty is <= tau, or < tau when strict. Explanation curves use the
    inclusive rule; the exhaustive baseline's per-size best probabilities
    use the strict one. A threshold the sequence never reaches is censored
    at len(values) + 1. Returns the probability-weighted MFP and whether
    any threshold was censored.
    """
    total = 0.0
    censored = False
    for tau, prob in dist.support:
        detected = (i for i, v in enumerate(values, start=1) if (v < tau if strict else v <= tau))
        m = next(detected, None)
        if m is None:
            m = len(values) + 1
            censored = True
        total += prob * m
    return total, censored
