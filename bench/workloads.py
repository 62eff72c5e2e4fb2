"""The benchmark's three workloads: set-up, one timed round, and its checks.

Each workload calls sfexplain's public functions through the package (or
its submodules) at call time, so the traced run sees every call. A round is
the unit that is timed, repeated and checked; every round of a workload does
the same work, whatever the seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sfexplain as sfe
import sfexplain.evaluate as sfe_evaluate
from sfexplain.seeding import TAG_RANDOM_SFE, derive_seed

import checks
from inputs import ANOMALY_VALUE, LABEL_COLUMN, REFERENCE_SEED, InputSpec

# Analyst forests: a tenth of ForestConfig's 100 trees, so that training all
# 255 subsets of n=8 fits in a round; each tree is grown as by default.
TREES = 10
RANDOM_REPEATS = 100
# Every labelled anomaly is evaluated, so the work per round does not depend
# on how many anomalies the seed's detector happens to rank near the top.
TOP_FRACTION = 1.0
# curves-warm-n6 compares loaded and trained forests on this sample.
SAMPLED_SUBSETS = 8
SAMPLED_ROWS = 20
# The density explainers by method name, in the package's reporting order.
EXPLAINERS = {
    "indmarg": "explain_ind_marg",
    "seqmarg": "explain_seq_marg",
    "inddo": "explain_ind_do",
    "seqdo": "explain_seq_do",
}
# The analyst's training pool: 1500 rows with 5% anomalies.
POOL = dict(pool_points=1500, pool_anomalies=75)


def _load(path: Path):
    return sfe.load_csv(path, LABEL_COLUMN, {ANOMALY_VALUE})


def _analyst_counts(analyst) -> dict:
    return {"hits": analyst.cache_hits, "trained": analyst.trained_count, "loaded": analyst.loaded_count}


def _evaluated(report) -> list[int]:
    return list(dict.fromkeys(r.point_index for r in report.per_point))


def _taus(config) -> list[tuple[float, float]]:
    return list(config.thresholds.support)


def _independent(state: dict) -> checks.IndependentDensity:
    if "indep" not in state:
        state["indep"] = checks.IndependentDensity(state["model"])
    return state["indep"]


@dataclass
class Workload:
    """Base: subclasses define spec (timed inputs), tiny (warm-up inputs),
    setup(), round() and check()."""

    seed: int

    def forest_config(self):
        return sfe.ForestConfig(tree_count=TREES, seed=self.seed)

    def fit(self, paths: dict):
        """Load the fixed reference set and fit the default detector on it, seed fixed too."""
        reference = _load(paths["reference"])
        return sfe.egmm_fit(reference.points, sfe.EgmmConfig(seed=REFERENCE_SEED), workers=1)

    def check_random(self, state: dict, report, analyst) -> None:
        """Replay the `random` repeats through the public seeds and the analyst."""
        config, bench = self.config(), state["bench"]
        n = bench.n_features
        orders = {
            idx: [
                sfe.explain_random(n, seed=derive_seed(config.seed, TAG_RANDOM_SFE, idx, r)).order
                for r in range(config.random_repeats)
            ]
            for idx in _evaluated(report)
        }
        checks.check_random(report, bench.points, analyst.prob_normal, orders, _taus(config))


@dataclass
class EvalCold(Workload):
    """The full protocol at n=8 with a fresh analyst every round."""

    spec = InputSpec(8, 300, 1, **POOL)
    tiny = InputSpec(3, 60, 2, pool_points=120, pool_anomalies=12, reference_points=300, reference_anomalies=15)

    def setup(self, paths: dict, workdir: Path) -> dict:
        bench, pool = _load(paths["bench"]), _load(paths["pool"])
        return {"bench": bench, "pool": pool, "model": self.fit(paths), "workdir": workdir}

    def config(self):
        return sfe.EvalConfig(top_fraction=TOP_FRACTION, random_repeats=RANDOM_REPEATS, seed=self.seed)

    def round(self, state: dict) -> dict:
        analyst = sfe.AnalystModel(state["pool"], self.forest_config(), seed=self.seed)
        report = sfe.run_evaluation(state["bench"], self.config(), egmm=state["model"], analyst=analyst)
        summary, per_point = state["workdir"] / "summary.csv", state["workdir"] / "per_point.csv"
        sfe_evaluate.write_summary_csv(report, summary)
        sfe_evaluate.write_per_point_csv(report, per_point)
        return {
            "report": report,
            "analyst": analyst,
            "counts": _analyst_counts(analyst),
            "files": (summary, per_point),
        }

    def check(self, state: dict, out: dict) -> None:
        bench, model, report = state["bench"], state["model"], out["report"]
        indep = _independent(state)
        n = bench.n_features
        ranking = sfe.rank_points(model, bench)
        checks.check_ranking(indep, bench.points, ranking)
        evaluated = _evaluated(report)
        checks.check_selection(ranking, bench.labels, TOP_FRACTION, evaluated)
        if not state.get("explanations_checked"):
            check_density_outputs(indep, bench, model, evaluated)
            state["explanations_checked"] = True
        checks.check_scores(report, _taus(self.config()))
        self.check_random(state, report, out.pop("analyst"))
        checks.check_dominance(report)
        checks.check_report_files(report, *out["files"])
        subsets = len(checks.all_subsets(n))
        per_anomaly = len(EXPLAINERS) * n + RANDOM_REPEATS * n + subsets
        checks.check_forest_training(out["counts"], per_anomaly * len(evaluated), subsets)


def check_density_outputs(indep, bench, model, points) -> None:
    """Explain each point again and check every explanation independently.

    The report keeps curves, not orders, so the orders are recomputed once
    per run, outside the timed rounds, through the same public explainers.
    """
    for idx in points:
        x = bench.points[idx]
        for explainer in EXPLAINERS.values():
            check_explanation(indep, x, getattr(sfe, explainer)(model, x))


def check_explanation(indep, x, explanation) -> None:
    checks.check_density(indep, x, explanation)
    if explanation.method.value in ("seqmarg", "seqdo"):
        checks.check_greedy(indep, x, explanation)
    else:
        checks.check_independent(indep, x, explanation)


@dataclass
class ExplainN20(Workload):
    """Rank, then explain the top-ranked anomalies of an n=20 detector.

    Each round ranks the points and explains the next anomaly in rank order
    with all four density methods, going round the anomalies across set-ups;
    every explanation makes the same number of density queries.
    """

    spec = InputSpec(20, 400, 20)
    tiny = InputSpec(4, 60, 3, reference_points=300, reference_anomalies=15)
    rounds: int = 0

    def setup(self, paths: dict, workdir: Path) -> dict:
        return {"bench": _load(paths["bench"]), "model": self.fit(paths)}

    def round(self, state: dict) -> dict:
        bench, model = state["bench"], state["model"]
        ranking = sfe.rank_points(model, bench)
        selected = sfe.select_evaluation_anomalies(ranking.tolist(), bench.labels, TOP_FRACTION)
        idx = selected[self.rounds % len(selected)]
        self.rounds += 1
        explanations = {idx: [getattr(sfe, e)(model, bench.points[idx]) for e in EXPLAINERS.values()]}
        return {"ranking": ranking, "selected": selected, "explanations": explanations}

    def check(self, state: dict, out: dict) -> None:
        bench = state["bench"]
        indep = _independent(state)
        checks.check_ranking(indep, bench.points, out["ranking"])
        checks.check_selection(out["ranking"], bench.labels, TOP_FRACTION, out["selected"])
        checks.require(len(out["explanations"]) == 1, "one anomaly is explained per round")
        for idx, explanations in out["explanations"].items():
            checks.require(idx in out["selected"], f"explained point {idx} is not a selected anomaly")
            checks.require([e.method.value for e in explanations] == list(EXPLAINERS), "methods missing")
            for explanation in explanations:
                checks.require(len(explanation) == bench.n_features, "explanation is short")
                check_explanation(indep, bench.points[idx], explanation)


@dataclass
class CurvesWarm(Workload):
    """Analyst-only baselines read from a disk cache trained in set-up."""

    spec = InputSpec(6, 400, 20, **POOL)
    tiny = InputSpec(3, 60, 3, pool_points=120, pool_anomalies=12, reference_points=300, reference_anomalies=15)

    def setup(self, paths: dict, workdir: Path) -> dict:
        bench, pool = _load(paths["bench"]), _load(paths["pool"])
        model = self.fit(paths)
        cache = workdir / "forests"
        shutil.rmtree(cache, ignore_errors=True)
        analyst = sfe.AnalystModel(pool, self.forest_config(), seed=self.seed, cache_dir=cache)
        trained = {s: analyst.classifier_for(s) for s in checks.all_subsets(bench.n_features)}
        return {"bench": bench, "pool": pool, "model": model, "cache": cache, "trained": trained}

    def config(self):
        methods = frozenset({sfe.Method.RANDOM, sfe.Method.OPT_ORACLE})
        return sfe.EvalConfig(
            top_fraction=TOP_FRACTION, random_repeats=RANDOM_REPEATS, methods=methods, seed=self.seed
        )

    def round(self, state: dict) -> dict:
        analyst = sfe.AnalystModel(
            state["pool"], self.forest_config(), seed=self.seed, cache_dir=state["cache"]
        )
        report = sfe.run_evaluation(state["bench"], self.config(), egmm=state["model"], analyst=analyst)
        return {"report": report, "analyst": analyst}

    def check(self, state: dict, out: dict) -> None:
        bench, report, analyst = state["bench"], out["report"], out.pop("analyst")
        n = bench.n_features
        evaluated = _evaluated(report)
        subsets = checks.all_subsets(n)
        counts = _analyst_counts(analyst)
        if "verified" in state:
            # Every round evaluates the same inputs with the same seeds, and the
            # program promises identical reruns, so a later round must reproduce
            # the report of the first, which was checked in full.
            checks.require(report == state["verified"], "report differs from the first round's")
        else:
            ranking = sfe.rank_points(state["model"], bench)
            checks.check_selection(ranking, bench.labels, TOP_FRACTION, evaluated)
            checks.check_scores(report, _taus(self.config()))
            checks.check_dominance(report)
            self.check_random(state, report, analyst)
            state["verified"] = report
        rng = np.random.default_rng(self.seed)
        rows = bench.points[rng.choice(bench.n_points, size=SAMPLED_ROWS, replace=False)]
        sample = rng.choice(len(subsets), size=min(SAMPLED_SUBSETS, len(subsets)), replace=False)
        pairs = [
            (analyst.classifier_for(subsets[i]), state["trained"][subsets[i]], rows[:, list(subsets[i])])
            for i in sample
        ]
        queries = len(evaluated) * (RANDOM_REPEATS * n + len(subsets))
        checks.check_disk_cache(counts, queries, len(subsets), pairs)


WORKLOADS = {"eval-cold-n8": EvalCold, "explain-n20": ExplainN20, "curves-warm-n6": CurvesWarm}

