"""The simulated analyst and its effort metrics.

The analyst answers "how likely is this point normal, seeing only these
features?" by training one discriminative forest per feature subset, on
demand. A forest's seed depends only on the analyst's seed and the subset,
so a forest dropped from memory retrains bit for bit. Revealing an
explanation's features one at a time yields a certainty curve; the minimum
feature prefix is how many features must be revealed before certainty drops
to a detection threshold. ``expected_mfp`` is the one place that rule is
defined.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import is_finite_real
from .dataset import Dataset
from .explain import Sfe, subset_key
from .forest import BaggedForest, ForestConfig, MalformedForest
from .seeding import derive_seed

logger = logging.getLogger(__name__)

# The most forests an analyst keeps in memory besides the one in use, least
# recently used evicted first. Evaluation plans its forests and needs one at
# a time; the memo serves single queries whose next subset is not known in
# advance, such as the oracle-mode explainers' and a replay of the curves.
MEMO_FORESTS = 64


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
    """Per-subset classifiers over a fixed labeled training set.

    Each subset's forest trains on the training data projected onto the
    subset, with a seed derived from (analyst seed, subset), so results do
    not depend on query order, and a forest trained again is the same forest
    bit for bit. Memory holds at most MEMO_FORESTS forests, least recently
    used evicted first, plus the one in use.

    There are two ways to query. ``classifier_for`` and ``prob_normal``
    answer one subset at a time through the memo. ``prob_normal_table``
    answers a whole plan, every (subset, point) pair an evaluation will ask
    for, training each subset at most once and predicting all of that
    subset's points in one call. Both go through one lock, held while a
    missing forest is loaded or trained, so a concurrent request waits for
    it and then finds the forest in the memo.

    The counters keep one meaning on both paths: ``trained_count`` counts
    forests trained, ``loaded_count`` forests loaded from disk, and
    ``cache_hits`` every query beyond the first that a trained or loaded
    forest answered.

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
        self._memo: OrderedDict[tuple[int, ...], BaggedForest] = OrderedDict()
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.trained_count = 0
        self.loaded_count = 0

    @property
    def n_features(self) -> int:
        return self.training_data.n_features

    def _cache_path(self, key: tuple[int, ...]) -> Path:
        return self.cache_dir / f"{self._fingerprint}_{'-'.join(map(str, key))}.npz"

    def _load_or_train(self, key: tuple[int, ...]) -> BaggedForest:
        """The subset's forest from the disk cache when usable, else trained
        and, with a cache directory, saved. Called with the lock held."""
        path = self._cache_path(key) if self.cache_dir is not None else None
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

    def classifier_for(self, subset: Iterable[int]) -> BaggedForest:
        """Return the forest for a feature subset: from the memo, else loaded
        or trained and put in the memo, evicting the least recently used
        forest past MEMO_FORESTS."""
        key = subset_key(subset, self.n_features)
        with self._lock:
            forest = self._memo.pop(key, None)
            if forest is None:
                forest = self._load_or_train(key)
            else:
                self.cache_hits += 1
            self._memo[key] = forest
            if len(self._memo) > MEMO_FORESTS:
                self._memo.popitem(last=False)
            return forest

    def prob_normal(self, x: np.ndarray, subset: Iterable[int]) -> float:
        """P(normal | the point's values on the subset), in (0, 1)."""
        key = subset_key(subset, self.n_features)
        forest = self.classifier_for(key)
        x = np.asarray(x, dtype=np.float64)
        return forest.prob_normal(x[list(key)])

    def prob_normal_table(
        self, plan: Mapping[tuple[int, ...], Mapping[int, int]], points: np.ndarray
    ) -> dict[tuple[int, ...], dict[int, float]]:
        """Answer a plan of queries: table[subset][i] is P(normal | points[i]
        on the subset), equal to ``prob_normal(points[i], subset)``.

        plan[subset][i] is how many queries ask for that pair; subsets must
        be canonical (``subset_key``). Under the lock, subsets whose forests
        are in the memo go first, so none is evicted before its turn; the
        rest follow in sorted order. Each forest comes from classifier_for
        and answers all of its subset's points in one ``prob_normal_many``
        call. A forest the plan loaded or trained is then dropped, so the
        pass holds one forest of its own at a time; entering the memo, it
        may have evicted the least recently used forest there. Counters
        advance as if each query were asked singly.
        """
        points = np.asarray(points, dtype=np.float64)
        table: dict[tuple[int, ...], dict[int, float]] = {}
        with self._lock:
            for key in sorted(plan, key=lambda key: (key not in self._memo, key)):
                in_memo = key in self._memo
                forest = self.classifier_for(key)
                if not in_memo:
                    del self._memo[key]
                self.cache_hits += sum(plan[key].values()) - 1
                rows = list(plan[key])
                probs = forest.prob_normal_many(points[np.ix_(rows, key)])
                table[key] = dict(zip(rows, probs.tolist()))
        return table


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
