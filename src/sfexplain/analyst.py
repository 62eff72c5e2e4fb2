"""The simulated analyst and its effort metrics.

The analyst answers "how likely is this point normal, seeing only these
features?" by training one discriminative forest per feature subset, on
demand, and keeps only the probabilities the forests answered. A forest's
seed depends only on the analyst's seed and the subset, so a forest trained
again is the same bit for bit. Revealing an explanation's features one at a
time yields a certainty curve; the minimum feature prefix is how many
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

from .config import is_finite_real, is_integer
from .dataset import Dataset
from .explain import Sfe, subset_key
from .forest import BaggedForest, ForestConfig, MalformedForest
from .seeding import derive_seed

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ThresholdDistribution:
    """Discrete distribution over detection thresholds in [0, 0.5]."""

    support: tuple[tuple[float, float], ...]

    def __post_init__(self):
        values = [v for pair in self.support for v in pair]
        if not all(map(is_finite_real, values)):
            raise ValueError("thresholds and probabilities must be finite real numbers, not bools or strings")
        support = tuple((float(t), float(p)) for t, p in self.support)
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


class AnalystModel:
    """Per-subset classifiers over a fixed labeled training set, behind one
    store of answers.

    Each subset's forest trains on the training data projected onto the
    subset, with a seed derived from (analyst seed, subset), so results do
    not depend on query order and a forest trained again is the same forest
    bit for bit. The analyst seed must be an integer, not a bool; it
    defaults to the forest config's.

    ``prob_normal`` is the one query. It reads one store of P(normal) by
    subset and row bytes, under one lock, and a forest it loads or trains
    answers every held row at once (``hold_rows``), so a caller that holds
    its rows first trains each subset once. The held rows grow with the
    distinct rows asked, and the store with the held rows times the subsets
    asked; the analyst holds no forest between queries. ``trained_count``
    counts forests trained, ``loaded_count`` forests loaded from disk, and
    ``cache_hits`` queries answered from the store.

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
        if seed is not None and not is_integer(seed):
            raise ValueError(f"seed must be an integer, not a bool, float or string; got {seed!r}")
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
        self._answers: dict[tuple[int, ...], dict[bytes, float]] = {}
        self._held: dict[bytes, None] = {}
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.trained_count = 0
        self.loaded_count = 0

    @property
    def n_features(self) -> int:
        return self.training_data.n_features

    def _cache_path(self, key: tuple[int, ...]) -> Path:
        return self.cache_dir / f"{self._fingerprint}_{'-'.join(map(str, key))}.npz"

    def classifier_for(self, subset: Iterable[int]) -> BaggedForest:
        """The subset's forest, from the disk cache when usable, else trained
        and, with a cache directory, saved. The analyst keeps no forest, so
        every call loads or trains one."""
        key = subset_key(subset, self.n_features)
        path = self._cache_path(key) if self.cache_dir is not None else None
        with self._lock:
            if path is not None and path.exists():
                try:
                    forest = BaggedForest.load(path)
                except MalformedForest as exc:
                    logger.warning("retraining: %s", exc)
                else:
                    if forest.n_features == len(key):
                        self.loaded_count += 1
                        return forest
                    logger.warning("retraining: %s has %d features, expected %d", path, forest.n_features, len(key))
            forest = BaggedForest.fit(
                self.training_data.points[:, key],
                self.training_data.labels,
                self.forest_config,
                seed=derive_seed(self.seed, *key),
            )
            self.trained_count += 1
            if path is not None:
                forest.save(path)
            return forest

    def hold_rows(self, points: np.ndarray) -> None:
        """Hold the rows of points: every forest that answers a query from now
        on also answers them, in the same ``prob_normal_many`` call. Raises
        ValueError unless points is 2-D with the analyst's n_features
        columns, all finite."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.n_features:
            raise ValueError(f"points must have the analyst's {self.n_features} features, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("analyst query values must be finite, not NaN or infinite")
        with self._lock:
            self._held.update(dict.fromkeys(row.tobytes() for row in points))

    def prob_normal(self, x: np.ndarray, subset: Iterable[int]) -> float:
        """P(normal | the point's values on the subset), in (0, 1).

        A query whose row the store holds for that subset is a hit.
        Otherwise the row is held (``hold_rows``), and ``classifier_for``
        loads or trains the subset's forest, which answers every held row not
        yet answered for that subset in one ``prob_normal_many`` call, under
        the lock, and is dropped. So a subset trains once for rows held
        before its first query, and once more for each new row asked later.
        Raises ValueError unless x has the analyst's n_features values, all
        finite.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_features,):
            raise ValueError(f"x must have the analyst's {self.n_features} features, got shape {x.shape}")
        key = subset_key(subset, self.n_features)
        row = x.tobytes()
        with self._lock:
            answers = self._answers.setdefault(key, {})
            if row in answers:
                self.cache_hits += 1
                return answers[row]
            self.hold_rows(x[None, :])
            todo = [r for r in self._held if r not in answers]
            points = np.frombuffer(b"".join(todo), dtype=np.float64).reshape(len(todo), self.n_features)
            probs = self.classifier_for(key).prob_normal_many(points[:, list(key)])
            answers.update(zip(todo, probs.tolist()))
            return answers[row]


def certainty_curve(analyst: AnalystModel, x: np.ndarray, explanation: Sfe) -> tuple[float, ...]:
    """Analyst P(normal) after revealing each successive explanation prefix,
    one value per prefix, each in (0, 1)."""
    return tuple(analyst.prob_normal(x, explanation.order[: i + 1]) for i in range(len(explanation)))


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
