"""End-to-end evaluation of explanation methods against the simulated analyst.

The harness fits (or receives) the ensemble detector, keeps the anomalies the
detector ranks in the top slice, explains each with the requested methods,
scores every explanation by threshold-averaged minimum feature prefix, and
aggregates per-method means with 95% confidence intervals. An oracle-detector
mode swaps the density behind the explanation methods for the analyst's own
conditional probability.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .analyst import AnalystModel, ThresholdDistribution, certainty_curve, expected_mfp
from .dataset import Dataset
from .density import EgmmConfig, EgmmModel, egmm_fit, rank_points
from .errors import SfexplainError
from .explain import DENSITY_METHODS, Method, density_explainers, explain_random
from .forest import ForestConfig
from .seeding import TAG_ANALYST, TAG_EGMM, TAG_RANDOM_SFE, derive_seed

logger = logging.getLogger(__name__)

OPT_ORACLE_SIZE_CAP = 10
OPT_ORACLE_BUDGET = 1_000_000

ALL_METHODS = frozenset(Method)
METHOD_ORDER = (*DENSITY_METHODS, Method.RANDOM, Method.OPT_ORACLE)


class NoAnomaliesSelected(SfexplainError):
    """No anomaly landed in the top-ranked slice; nothing to evaluate."""


class CombinatorialBudgetExceeded(SfexplainError):
    """Exhaustive subset search would exceed the query budget."""


class DetectorMode(str, Enum):
    EGMM = "egmm"
    ORACLE = "oracle"


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation protocol parameters."""

    top_fraction: float = 0.10
    max_prefix: int | None = None
    thresholds: ThresholdDistribution = field(default_factory=ThresholdDistribution.uniform)
    random_repeats: int = 100
    methods: frozenset[Method] = ALL_METHODS
    detector_mode: DetectorMode = DetectorMode.EGMM
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")
        if self.max_prefix is not None and self.max_prefix < 1:
            raise ValueError("max_prefix must be positive")
        if self.random_repeats < 1:
            raise ValueError("random_repeats must be >= 1")
        methods = frozenset(Method(m) for m in self.methods)
        if not methods:
            raise ValueError("at least one method is required")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "detector_mode", DetectorMode(self.detector_mode))


@dataclass(frozen=True)
class MethodSummary:
    mean_expected_mfp: float
    ci95_half_width: float
    n_anomalies: int
    censored_count: int


@dataclass(frozen=True)
class PointResult:
    point_index: int
    method: Method
    expected_mfp: float
    censored: bool
    curve: tuple[float, ...]


@dataclass(frozen=True)
class EvaluationReport:
    per_method: dict[Method, MethodSummary]
    per_point: tuple[PointResult, ...]
    detector_mode: DetectorMode

    def __post_init__(self):
        counts = {s.n_anomalies for s in self.per_method.values()}
        if len(counts) > 1:
            raise ValueError("methods must all cover the same anomalies")

    def method_label(self, method: Method) -> str:
        starred = self.detector_mode is DetectorMode.ORACLE and method in DENSITY_METHODS
        return method.value + ("*" if starred else "")


def select_evaluation_anomalies(
    ranking: Sequence[int], labels: np.ndarray, top_fraction: float
) -> list[int]:
    """Anomalies among the first ceil(top_fraction * N) ranked points, in rank order."""
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must be in (0, 1], got {top_fraction}")
    n = len(ranking)
    if sorted(ranking) != list(range(n)):
        raise ValueError("ranking must be a permutation of the point indices")
    cutoff = math.ceil(top_fraction * n)
    selected = [int(i) for i in list(ranking)[:cutoff] if labels[i]]
    if not selected:
        raise NoAnomaliesSelected(
            f"no anomaly ranked in the top {top_fraction:.0%} ({cutoff} points)"
        )
    return selected


def explain_opt_oracle(
    analyst: AnalystModel, x: np.ndarray, max_size: int
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """For each size 1..max_size, the subset minimizing analyst certainty.

    Returns one (subset, prob_normal) pair per size. Each size keeps the first
    best subset in ``combinations`` order; subsets of different sizes need
    not be nested. Enumeration is guarded by a total budget on the number of
    analyst queries.
    """
    n = analyst.n_features
    if not 1 <= max_size <= n:
        raise ValueError(f"max_size must be in [1, {n}], got {max_size}")
    total = sum(math.comb(n, i) for i in range(1, max_size + 1))
    if total > OPT_ORACLE_BUDGET:
        raise CombinatorialBudgetExceeded(
            f"{total} subsets exceed the budget of {OPT_ORACLE_BUDGET}"
        )
    best = []
    for size in range(1, max_size + 1):
        scored = ((s, analyst.prob_normal(x, s)) for s in combinations(range(n), size))
        best.append(min(scored, key=itemgetter(1)))
    return tuple(best)


class AnalystDensityOracle:
    """Adapter exposing the analyst's log P(normal | x_S) as a density oracle."""

    def __init__(self, analyst: AnalystModel):
        self.analyst = analyst

    def log_marginal(self, x: np.ndarray, subset: Sequence[int]) -> float:
        return math.log(self.analyst.prob_normal(x, subset))


def _summary(values: list[float], censored_flags: list[bool]) -> MethodSummary:
    n = len(values)
    mean = float(np.mean(values))
    if n > 1:
        half = float(1.96 * np.std(values, ddof=1) / math.sqrt(n))
    else:
        half = 0.0
    return MethodSummary(
        mean_expected_mfp=mean,
        ci95_half_width=half,
        n_anomalies=n,
        censored_count=int(sum(censored_flags)),
    )


def run_evaluation(
    dataset: Dataset,
    config: EvalConfig,
    egmm_config: EgmmConfig | None = None,
    forest_config: ForestConfig | None = None,
    analyst_data: Dataset | None = None,
    egmm: EgmmModel | None = None,
    analyst: AnalystModel | None = None,
) -> EvaluationReport:
    """Run the full protocol on one benchmark dataset.

    The analyst trains on analyst_data when given (normally the mother-set
    rows left out of the benchmark, or the whole labeled mother set);
    otherwise it falls back to the benchmark itself, which lets it memorize
    the evaluated anomalies, so a warning is logged. A prebuilt analyst may
    be passed instead to share its classifier cache across benchmarks drawn
    from one mother set.

    Every method yields certainty curves for each anomaly: one for a density
    method, random_repeats for random, and the per-size best probabilities
    for optoracle (scored with the strict threshold). A row's MFP is the mean
    of its curves' expected MFPs, censored if any curve was, and its curve is
    the mean curve.
    """
    if dataset.n_anomalies < 1:
        raise ValueError("evaluation needs at least one anomaly in the dataset")
    n = dataset.n_features
    k = n if config.max_prefix is None else min(config.max_prefix, n)

    if egmm is None:
        egmm_config = egmm_config or EgmmConfig(seed=derive_seed(config.seed, TAG_EGMM))
        egmm = egmm_fit(dataset.points, egmm_config)
    ranking = rank_points(egmm, dataset)
    selected = select_evaluation_anomalies(ranking.tolist(), dataset.labels, config.top_fraction)

    if analyst is None:
        if analyst_data is None or not analyst_data.labels.any():
            if analyst_data is not None:
                logger.warning("analyst training data has no anomalies; using the benchmark itself")
            else:
                logger.warning(
                    "no separate analyst training data; the analyst trains on the "
                    "evaluated benchmark and may memorize its anomalies"
                )
            analyst_data = dataset
        analyst = AnalystModel(
            analyst_data,
            forest_config or ForestConfig(),
            seed=derive_seed(config.seed, TAG_ANALYST),
        )
    detector = egmm if config.detector_mode is DetectorMode.EGMM else AnalystDensityOracle(analyst)
    opt_k = min(k, OPT_ORACLE_SIZE_CAP)

    explainers = density_explainers()

    per_point: list[PointResult] = []
    values: dict[Method, list[float]] = {m: [] for m in METHOD_ORDER if m in config.methods}
    flags: dict[Method, list[bool]] = {m: [] for m in values}

    for idx in selected:
        x = dataset.points[idx]
        for method in values:
            if method is Method.OPT_ORACLE:
                curves = [tuple(p for _, p in explain_opt_oracle(analyst, x, opt_k))]
            elif method is Method.RANDOM:
                curves = [
                    certainty_curve(
                        analyst,
                        x,
                        explain_random(n, k, seed=derive_seed(config.seed, TAG_RANDOM_SFE, idx, r)),
                    )
                    for r in range(config.random_repeats)
                ]
            else:
                curves = [certainty_curve(analyst, x, explainers[method](detector, x, k))]
            strict = method is Method.OPT_ORACLE
            scored = [expected_mfp(curve, config.thresholds, strict=strict) for curve in curves]
            value = float(np.mean([v for v, _ in scored]))
            censored = any(c for _, c in scored)
            curve_values = tuple(np.mean(curves, axis=0).tolist())
            values[method].append(value)
            flags[method].append(censored)
            per_point.append(
                PointResult(
                    point_index=idx,
                    method=method,
                    expected_mfp=value,
                    censored=censored,
                    curve=curve_values,
                )
            )

    per_method = {m: _summary(values[m], flags[m]) for m in values}
    return EvaluationReport(
        per_method=per_method,
        per_point=tuple(per_point),
        detector_mode=config.detector_mode,
    )


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def write_summary_csv(report: EvaluationReport, path: str | Path) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "mean_expected_mfp", "ci95_half_width", "n_anomalies", "censored_count"]
        )
        for method in METHOD_ORDER:
            summary = report.per_method.get(method)
            if summary is None:
                continue
            writer.writerow(
                [
                    report.method_label(method),
                    repr(summary.mean_expected_mfp),
                    repr(summary.ci95_half_width),
                    str(summary.n_anomalies),
                    str(summary.censored_count),
                ]
            )


def write_per_point_csv(report: EvaluationReport, path: str | Path) -> None:
    with open(Path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["point_index", "method", "expected_mfp", "censored", "curve"])
        for r in report.per_point:
            writer.writerow(
                [
                    str(r.point_index),
                    report.method_label(r.method),
                    repr(r.expected_mfp),
                    "true" if r.censored else "false",
                    ";".join(repr(v) for v in r.curve),
                ]
            )


def format_summary_table(report: EvaluationReport) -> str:
    lines = [f"{'method':<12} {'mean_mfp':>9} {'ci95':>7} {'n':>4} {'censored':>9}"]
    for method in METHOD_ORDER:
        summary = report.per_method.get(method)
        if summary is None:
            continue
        lines.append(
            f"{report.method_label(method):<12} "
            f"{summary.mean_expected_mfp:>9.3f} "
            f"{summary.ci95_half_width:>7.3f} "
            f"{summary.n_anomalies:>4d} "
            f"{summary.censored_count:>9d}"
        )
    return "\n".join(lines)
