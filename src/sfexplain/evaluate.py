"""End-to-end evaluation of explanation methods against the simulated analyst.

The harness takes a fitted ensemble detector and an analyst, keeps the
anomalies the detector ranks in the top slice, explains each with the
requested methods, scores every explanation by threshold-averaged minimum
feature prefix, and aggregates per-method means with 95% confidence
intervals. An oracle-detector mode swaps the density behind the explanation
methods for the analyst's own conditional probability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .analyst import AnalystModel, ThresholdDistribution, certainty_curve, expected_mfp
from .config import check_fields
from .dataset import Dataset
from .density import EgmmModel, rank_points
from .errors import SfexplainError
from .explain import DensityOracle, Method, density_explainers, explain_point, subset_key

OPT_ORACLE_SIZE_CAP = 10
OPT_ORACLE_BUDGET = 1_000_000


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
    methods: frozenset[Method] = frozenset(Method)
    detector_mode: DetectorMode = DetectorMode.EGMM
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
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
        per_method = {Method(m): s for m, s in self.per_method.items()}
        object.__setattr__(self, "per_method", {m: per_method[m] for m in Method if m in per_method})

    def method_label(self, method: Method) -> str:
        starred = self.detector_mode is DetectorMode.ORACLE and method in density_explainers()
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
    if len(labels) != n:
        raise ValueError(f"need one label per ranked point, got {len(labels)} labels for {n} points")
    cutoff = math.ceil(top_fraction * n)
    selected = [int(i) for i in list(ranking)[:cutoff] if labels[i]]
    if not selected:
        raise NoAnomaliesSelected(
            f"no anomaly ranked in the top {top_fraction:.0%} ({cutoff} points)"
        )
    return selected


def _check_opt_oracle_budget(n: int, max_size: int) -> None:
    """Raise unless 1 <= max_size <= n and the subsets of sizes 1..max_size
    of n features fit OPT_ORACLE_BUDGET."""
    if not 1 <= max_size <= n:
        raise ValueError(f"max_size must be in [1, {n}], got {max_size}")
    total = sum(math.comb(n, i) for i in range(1, max_size + 1))
    if total > OPT_ORACLE_BUDGET:
        raise CombinatorialBudgetExceeded(
            f"{total} subsets exceed the budget of {OPT_ORACLE_BUDGET}"
        )


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
    _check_opt_oracle_budget(n, max_size)
    return tuple(
        min(((s, analyst.prob_normal(x, s)) for s in combinations(range(n), size)), key=itemgetter(1))
        for size in range(1, max_size + 1)
    )


class AnalystDensityOracle:
    """Adapter exposing the analyst's log P(normal | x_S) as a density oracle."""

    def __init__(self, analyst: AnalystModel):
        self.analyst = analyst

    def log_marginal(self, x: np.ndarray, subset: Sequence[int]) -> float:
        return math.log(self.analyst.prob_normal(x, subset))


class _SubsetMemo:
    """A density oracle for one point that asks the detector once per
    canonical subset; the x it is given is that point."""

    def __init__(self, detector: DensityOracle, n: int):
        self.detector = detector
        self.n = n
        self.values: dict[tuple[int, ...], float] = {}

    def log_marginal(self, x: np.ndarray, subset: Sequence[int]) -> float:
        key = subset_key(subset, self.n)
        if key not in self.values:
            self.values[key] = self.detector.log_marginal(x, key)
        return self.values[key]


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


def check_evaluation_inputs(dataset: Dataset, analyst_data: Dataset, config: EvalConfig) -> tuple[int, int]:
    """Raise on any rule of a run that needs no fitted model, in this order:
    no anomaly in the benchmark (ValueError), analyst columns that are not the
    benchmark's in order (SfexplainError), optoracle past OPT_ORACLE_BUDGET
    (CombinatorialBudgetExceeded), dropout on one feature (ValueError).
    Returns the explanation length k and optoracle's largest subset size."""
    if dataset.n_anomalies < 1:
        raise ValueError("evaluation needs at least one anomaly in the dataset")
    if analyst_data.feature_names != dataset.feature_names:
        raise SfexplainError(
            f"the analyst's columns {list(analyst_data.feature_names)} "
            f"are not the benchmark's {list(dataset.feature_names)}"
        )
    n = dataset.n_features
    k = n if config.max_prefix is None else min(config.max_prefix, n)
    opt_k = min(k, OPT_ORACLE_SIZE_CAP)
    if Method.OPT_ORACLE in config.methods:
        _check_opt_oracle_budget(n, opt_k)
    if n < 2 and {Method.IND_DO, Method.SEQ_DO} & config.methods:
        raise ValueError("dropout needs at least 2 features")
    return k, opt_k


def run_evaluation(
    dataset: Dataset, config: EvalConfig, egmm: EgmmModel, analyst: AnalystModel
) -> EvaluationReport:
    """Run the full protocol on one benchmark dataset with a fitted detector
    and an analyst, which should train on labeled data beyond the benchmark.
    It first runs ``check_evaluation_inputs``, so every error that needs no
    fitted model is raised before the run ranks a point or trains a forest.

    Every method yields certainty curves for each anomaly: one for a density
    method, random_repeats for random, and the per-size best probabilities
    for optoracle (scored with the strict threshold). A row's MFP is the mean
    of its curves' expected MFPs, censored if any curve was, and its curve is
    the mean curve.

    The run holds the selected anomalies in the analyst
    (``AnalystModel.hold_rows``) and makes one pass over them. Every analyst
    query is a ``prob_normal`` call, so each subset's forest trains at most
    once, answers all selected anomalies into the analyst's answer store and
    is dropped; asking the same queries again later reads the store. For
    each anomaly, each method but optoracle explains it through one memo of
    subset log densities, so each distinct subset is asked once per anomaly;
    the density is the ensemble's, or in oracle mode the analyst's
    (``AnalystDensityOracle``). Its curves come from ``certainty_curve``,
    and optoracle's from ``explain_opt_oracle``.
    """
    k, opt_k = check_evaluation_inputs(dataset, analyst.training_data, config)
    n = dataset.n_features
    methods = [m for m in Method if m in config.methods]

    ranking = rank_points(egmm, dataset)
    selected = select_evaluation_anomalies(ranking.tolist(), dataset.labels, config.top_fraction)
    analyst.hold_rows(dataset.points[selected])
    detector = egmm if config.detector_mode is DetectorMode.EGMM else AnalystDensityOracle(analyst)

    per_point: list[PointResult] = []
    for idx in selected:
        x = dataset.points[idx]
        memo = _SubsetMemo(detector, n)
        for method in methods:
            if method is Method.OPT_ORACLE:
                curves = [tuple(p for _, p in explain_opt_oracle(analyst, x, opt_k))]
            else:
                sfes = explain_point(memo, x, method, k, config.seed, idx, config.random_repeats)
                curves = [certainty_curve(analyst, x, sfe) for sfe in sfes]
            strict = method is Method.OPT_ORACLE
            scored = [expected_mfp(curve, config.thresholds, strict=strict) for curve in curves]
            per_point.append(
                PointResult(
                    point_index=idx,
                    method=method,
                    expected_mfp=float(np.mean([v for v, _ in scored])),
                    censored=any(c for _, c in scored),
                    curve=tuple(np.mean(curves, axis=0).tolist()),
                )
            )

    per_method = {}
    for m in methods:
        rows = [r for r in per_point if r.method is m]
        per_method[m] = _summary([r.expected_mfp for r in rows], [r.censored for r in rows])
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
        for method, summary in report.per_method.items():
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
    for method, summary in report.per_method.items():
        lines.append(
            f"{report.method_label(method):<12} "
            f"{summary.mean_expected_mfp:>9.3f} "
            f"{summary.ci95_half_width:>7.3f} "
            f"{summary.n_anomalies:>4d} "
            f"{summary.censored_count:>9d}"
        )
    return "\n".join(lines)
