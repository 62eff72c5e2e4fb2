"""Output checks that do not trust the program.

Densities are recomputed with numpy from the parameters the fitted model
publishes (members, their components, and the input shift/scale).
Orders are checked against properties each method must have under that
independent density, and reported scores are recomputed from the curves the
report carries. Every check raises CheckFailed with a reason.
"""

from __future__ import annotations

import csv
import math
import statistics
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

# Agreement between the program's log densities and the independent ones.
LOG_DENSITY_RTOL = 1e-7
# Slack for comparing two independent log densities: near-ties may go either way.
TIE_RTOL = 1e-9
# Slack on analyst probabilities (the `random` curve is a mean of repeats).
PROB_ATOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


class IndependentDensity:
    """Ensemble log densities recomputed from the model's published parameters.

    All retained components are evaluated at once with numpy's batched
    Cholesky factorization, apart from the program's per-component code.
    Queries are memoized.
    """

    # Points per batch in log_joint_many, so the check's temporaries stay small.
    CHUNK = 16

    def __init__(self, model):
        self.shift = np.asarray(model.shift, dtype=float)
        self.scale = np.asarray(model.scale, dtype=float)
        # The ensemble density is the mean of its members' mixtures, so its log
        # is one log-sum-exp over every weighted component, less log(members).
        comps = [c for m in model.members for c in m.components]
        self.log_members = math.log(len(model.members))
        self.log_w = np.log([c.weight for c in comps])
        self.mean = np.array([c.mean for c in comps], dtype=float)
        self.cov = np.array([c.covariance for c in comps], dtype=float)
        self._memo: dict[tuple[bytes, tuple[int, ...]], float] = {}

    def _log_mixture(self, z: np.ndarray, idx: list[int]) -> np.ndarray:
        """Log density of each row of z (points x len(idx)) on features idx."""
        chol = np.linalg.cholesky(self.cov[:, idx][:, :, idx])
        inv = np.linalg.inv(chol)
        log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        const = self.log_w - 0.5 * (log_det + len(idx) * math.log(2.0 * math.pi))
        out = []
        for start in range(0, len(z), self.CHUNK):
            diff = z[start : start + self.CHUNK, None, :] - self.mean[None, :, idx]
            maha = np.square(np.einsum("cij,pcj->pci", inv, diff)).sum(axis=2)
            out.append(logsumexp(const - 0.5 * maha, axis=1))
        jacobian = float(np.sum(np.log(self.scale[idx])))
        return np.concatenate(out) - self.log_members - jacobian

    def log_marginal(self, x: np.ndarray, subset) -> float:
        idx = sorted({int(j) for j in subset})
        key = (np.asarray(x, dtype=float).tobytes(), tuple(idx))
        if key not in self._memo:
            z = (np.asarray(x, dtype=float)[idx] - self.shift[idx]) / self.scale[idx]
            self._memo[key] = float(self._log_mixture(z[None, :], idx)[0])
        return self._memo[key]

    def log_joint_many(self, points: np.ndarray) -> np.ndarray:
        idx = list(range(points.shape[1]))
        return self._log_mixture((points - self.shift) / self.scale, idx)


# -- density and ranking ----------------------------------------------------------


def queried_log_densities(sfe, n: int):
    """(subset, value) pairs for the density queries an explanation reports."""
    order, scores = list(sfe.order), list(sfe.step_scores)
    method = sfe.method.value
    if method == "indmarg":
        return [((j,), s) for j, s in zip(order, scores)]
    if method == "seqmarg":
        return [(tuple(order[: i + 1]), s) for i, s in enumerate(scores)]
    if method == "seqdo":
        return [
            (tuple(j for j in range(n) if j not in order[: i + 1]), s)
            for i, s in enumerate(scores)
            if not math.isnan(s)
        ]
    return []


def check_density(indep: IndependentDensity, x: np.ndarray, sfe) -> None:
    """Each log density an explanation reports equals the independent one."""
    for subset, value in queried_log_densities(sfe, len(x)):
        want = indep.log_marginal(x, subset)
        require(
            _close(value, want, LOG_DENSITY_RTOL),
            f"{sfe.method.value}: log density of {subset} is {value!r}, recomputed {want!r}",
        )


def check_ranking(indep: IndependentDensity, points: np.ndarray, ranking) -> np.ndarray:
    """The ranking is a permutation, non-decreasing in independent joint density."""
    ranking = np.asarray(ranking)
    require(
        sorted(ranking.tolist()) == list(range(len(points))), "ranking is not a permutation"
    )
    joint = indep.log_joint_many(points)[ranking]
    for a, b, pos in zip(joint[:-1], joint[1:], range(1, len(joint))):
        require(b >= a or _close(a, b, TIE_RTOL), f"ranking decreases at position {pos}: {a} > {b}")
    return joint


def check_selection(ranking, labels: np.ndarray, top_fraction: float, evaluated) -> None:
    """Evaluated anomalies are the labelled ones in the top slice, in rank order."""
    cut = math.ceil(top_fraction * len(ranking))
    want = [int(i) for i in list(ranking)[:cut] if labels[i]]
    require(list(evaluated) == want, f"evaluated {list(evaluated)}, expected {want}")


# -- explanation methods -----------------------------------------------------------


def check_greedy(indep: IndependentDensity, x: np.ndarray, sfe) -> None:
    """seqmarg takes the minimum, seqdo the maximum complement, at every step."""
    n = len(x)
    method = sfe.method.value
    chosen: list[int] = []
    remaining = list(range(n))
    for step, pick in enumerate(sfe.order):
        require(pick in remaining, f"{method}: step {step} picks used feature {pick}")
        if method == "seqdo" and len(remaining) == 1:
            break
        if method == "seqmarg":
            values = {j: indep.log_marginal(x, chosen + [j]) for j in remaining}
            best = min(values.values())
            ok = values[pick] <= best or _close(values[pick], best, TIE_RTOL)
        else:
            values = {j: indep.log_marginal(x, [t for t in remaining if t != j]) for j in remaining}
            best = max(values.values())
            ok = values[pick] >= best or _close(values[pick], best, TIE_RTOL)
        require(ok, f"{method}: step {step} picks {pick} ({values[pick]!r}); best is {best!r}")
        chosen.append(pick)
        remaining.remove(pick)


def dropout_gains(indep: IndependentDensity, x: np.ndarray) -> tuple[list[float], float]:
    """Density gain of dropping each feature, scaled by exp(-anchor), and the anchor."""
    n = len(x)
    full = indep.log_marginal(x, range(n))
    dropped = [indep.log_marginal(x, [t for t in range(n) if t != j]) for j in range(n)]
    anchor = max(dropped + [full])
    return [math.exp(a - anchor) - math.exp(full - anchor) for a in dropped], anchor


def check_independent(indep: IndependentDensity, x: np.ndarray, sfe) -> None:
    """indmarg ascends in singleton density; inddo descends in dropout gain.

    inddo's step scores must also equal the independent gains.
    """
    n = len(x)
    method = sfe.method.value
    order = list(sfe.order)
    if method == "indmarg":
        keys = [indep.log_marginal(x, (j,)) for j in range(n)]
    else:
        gains, anchor = dropout_gains(indep, x)
        keys = [-g for g in gains]
        top = max(abs(g) for g in gains)
        for j, score in zip(order, sfe.step_scores):
            want = gains[j] * math.exp(anchor)
            require(
                abs(score - want) <= 1e-6 * top * math.exp(anchor),
                f"inddo: step score of {j} is {score!r}, recomputed {want!r}",
            )
    rest = [j for j in range(n) if j not in order]
    sequence = [keys[j] for j in order] + ([min(keys[j] for j in rest)] if rest else [])
    for pos, (a, b) in enumerate(zip(sequence[:-1], sequence[1:]), start=1):
        require(
            b >= a or _close(a, b, TIE_RTOL),
            f"{method}: order breaks at position {pos} ({order})",
        )


# -- analyst curves and reported scores ---------------------------------------------


def expected_mfp(curve, taus_probs, strict: bool) -> tuple[float, bool]:
    """Threshold-averaged MFP, censored at curve length + 1."""
    total, censored = 0.0, False
    for tau, prob in taus_probs:
        hit = next(
            (i for i, v in enumerate(curve, start=1) if (v < tau if strict else v <= tau)), None
        )
        if hit is None:
            hit, censored = len(curve) + 1, True
        total += prob * hit
    return total, censored


def check_scores(report, taus_probs) -> None:
    """Certainties lie in (0, 1); MFPs, means and CIs recompute from the curves."""
    by_method: dict = {}
    for r in report.per_point:
        name = r.method.value
        require(all(0.0 < v < 1.0 for v in r.curve), f"{name}: certainty outside (0, 1) at {r.point_index}")
        if name == "random":
            # The mean over the repeats is replayed by check_random.
            require(1.0 <= r.expected_mfp <= len(r.curve) + 1, f"random: MFP {r.expected_mfp} out of range")
        else:
            want, censored = expected_mfp(r.curve, taus_probs, strict=name == "optoracle")
            require(
                _close(r.expected_mfp, want, 1e-12) and r.censored == censored,
                f"{name} at {r.point_index}: MFP {r.expected_mfp} (censored {r.censored}), "
                f"curve gives {want} (censored {censored})",
            )
        by_method.setdefault(r.method, []).append(r)
    require(set(by_method) == set(report.per_method), "summary and per-point methods differ")
    for method, rows in by_method.items():
        values = [r.expected_mfp for r in rows]
        summary = report.per_method[method]
        mean = statistics.fmean(values)
        half = 1.96 * statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
        require(summary.n_anomalies == len(values), f"{method.value}: anomaly count differs")
        require(summary.censored_count == sum(r.censored for r in rows), f"{method.value}: censored count differs")
        require(_close(summary.mean_expected_mfp, mean, 1e-12), f"{method.value}: mean {summary.mean_expected_mfp} != {mean}")
        require(_close(summary.ci95_half_width, half, 1e-9), f"{method.value}: CI {summary.ci95_half_width} != {half}")


def check_random(report, points: np.ndarray, prob_normal, orders, taus_probs) -> None:
    """Each `random` row is the mean over its repeats, replayed independently.

    orders[idx] lists the orderings the repeats drew for point idx, and
    prob_normal(x, prefix) is the analyst's certainty after that prefix.
    """
    for r in report.per_point:
        if r.method.value != "random":
            continue
        x, k = points[r.point_index], len(r.curve)
        curves = [[prob_normal(x, order[: i + 1]) for i in range(k)] for order in orders[r.point_index]]
        scored = [expected_mfp(curve, taus_probs, strict=False) for curve in curves]
        want = statistics.fmean(v for v, _ in scored)
        censored = any(c for _, c in scored)
        require(
            _close(r.expected_mfp, want, 1e-12) and r.censored == censored,
            f"random at {r.point_index}: MFP {r.expected_mfp} (censored {r.censored}), "
            f"repeats give {want} (censored {censored})",
        )
        mean_curve = np.mean(curves, axis=0)
        require(
            np.allclose(r.curve, mean_curve, rtol=0.0, atol=PROB_ATOL),
            f"random at {r.point_index}: curve is not the mean of its repeats",
        )


def check_dominance(report) -> None:
    """At every size, optoracle's best probability is <= every other curve's value."""
    curves: dict[int, dict[str, tuple]] = {}
    for r in report.per_point:
        curves.setdefault(r.point_index, {})[r.method.value] = r.curve
    for point, by_name in curves.items():
        best = by_name["optoracle"]
        for name, curve in by_name.items():
            for size, (opt, value) in enumerate(zip(best, curve), start=1):
                require(
                    opt <= value + PROB_ATOL,
                    f"point {point}, size {size}: optoracle {opt} > {name} {value}",
                )


def check_report_files(report, summary_path: Path, per_point_path: Path) -> None:
    """The written CSVs read back to the report's values exactly."""
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(report.per_method), "summary.csv row count differs")
    for row in rows:
        summary = next(s for m, s in report.per_method.items() if report.method_label(m) == row["method"])
        require(float(row["mean_expected_mfp"]) == summary.mean_expected_mfp, f"summary.csv mean of {row['method']}")
        require(float(row["ci95_half_width"]) == summary.ci95_half_width, f"summary.csv CI of {row['method']}")
    with open(per_point_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == len(report.per_point), "per_point.csv row count differs")
    for row, r in zip(rows, report.per_point):
        require(int(row["point_index"]) == r.point_index, "per_point.csv point order differs")
        require(float(row["expected_mfp"]) == r.expected_mfp, f"per_point.csv MFP of {r.point_index}")
        curve = tuple(float(v) for v in row["curve"].split(";"))
        require(curve == tuple(r.curve), f"per_point.csv curve of {r.point_index}")


# -- analyst cache --------------------------------------------------------------------


def all_subsets(n: int) -> list[tuple[int, ...]]:
    return [s for size in range(1, n + 1) for s in combinations(range(n), size)]


def check_forest_training(counts: dict, queries: int, subsets: int) -> None:
    """A cold analyst trains each distinct subset queried exactly once."""
    require(counts["trained"] == subsets, f"trained {counts['trained']} forests, expected {subsets}")
    require(counts["loaded"] == 0, f"cold analyst loaded {counts['loaded']} forests")
    require(
        counts["hits"] == queries - subsets,
        f"{counts['hits']} cache hits for {queries} queries of {subsets} subsets",
    )


def check_disk_cache(counts: dict, queries: int, subsets: int, pairs) -> None:
    """A warm analyst trains nothing, loads each subset once, and predicts as trained.

    pairs holds (forest loaded from disk, forest trained in set-up, rows) for
    a sample of subsets.
    """
    require(counts["trained"] == 0, f"warm analyst trained {counts['trained']} forests")
    require(counts["loaded"] == subsets, f"loaded {counts['loaded']} forests, expected {subsets}")
    require(
        counts["hits"] == queries - subsets,
        f"{counts['hits']} cache hits for {queries} queries of {subsets} subsets",
    )
    for loaded, trained, rows in pairs:
        for row in rows:
            a, b = loaded.prob_normal(row), trained.prob_normal(row)
            require(a == b, f"loaded forest predicts {a!r}, trained one {b!r}")
