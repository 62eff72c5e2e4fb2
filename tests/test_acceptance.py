"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The real-data criterion uses the small UCI datasets
bundled with scikit-learn (diabetes, iris) as mother sets.
"""

import math
import time

import numpy as np
import pytest

from conftest import make_single_deviant_dataset, trapezoid_marginal
from sfexplain.analyst import AnalystModel, ThresholdDistribution, certainty_curve
from sfexplain.cli import main as cli_main
from sfexplain.dataset import BenchmarkSpec, Dataset, MotherSet, sample_benchmark_split, save_csv
from sfexplain.density import (
    EgmmConfig,
    GaussianComponent,
    GmmModel,
    egmm_fit,
    fit_gmm,
    gmm_log_marginal,
)
from sfexplain.evaluate import (
    AnalystDensityOracle,
    EvalConfig,
    NoAnomaliesSelected,
    _summary,
    explain_opt_oracle,
    rank_points,
    run_evaluation,
    select_evaluation_anomalies,
)
from sfexplain.explain import Method, explain_random, explain_seq_do, explain_seq_marg
from sfexplain.forest import ForestConfig

TAUS = (0.1, 0.2, 0.3)
ALL_SFE_METHODS = frozenset(
    {Method.IND_MARG, Method.SEQ_MARG, Method.IND_DO, Method.SEQ_DO, Method.RANDOM}
)


def report_pass(number, name, start, budget_seconds):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.1f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def random_mixture_parts(rng, n, k):
    weights = rng.dirichlet(np.ones(k))
    means = [rng.normal(scale=2.5, size=n) for _ in range(k)]
    covs = []
    for _ in range(k):
        a = rng.normal(size=(n, n))
        covs.append(rng.uniform(0.3, 1.2) * (a @ a.T + n * np.eye(n)))
    model = GmmModel(
        components=tuple(
            GaussianComponent(weight=float(w), mean=m, covariance=c)
            for w, m, c in zip(weights, means, covs)
        ),
        n=n,
    )
    return model, weights, means, covs


def blobby_points(rng, n_points, n_features, n_blobs=2, spread=3.0):
    centers = rng.normal(scale=spread, size=(n_blobs, n_features))
    assign = rng.integers(n_blobs, size=n_points)
    return centers[assign] + rng.normal(size=(n_points, n_features))


def test_c1_marginal_correctness():
    """Closed-form subset marginals match trapezoidal integration, 1e-3 rel."""
    start = time.time()
    rng = np.random.default_rng(101)
    for case in range(100):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        model, weights, means, covs = random_mixture_parts(rng, n, k)
        n_drop = 1 if n == 2 else int(rng.integers(1, 3))
        drop = sorted(rng.choice(n, size=n_drop, replace=False).tolist())
        keep = [j for j in range(n) if j not in drop]
        anchor = means[int(rng.integers(k))]
        x = anchor + rng.normal(scale=1.5, size=n)
        got = math.exp(gmm_log_marginal(model, x, keep))
        want = trapezoid_marginal(
            weights, means, covs, x, keep, drop,
            points_per_dim=801 if n_drop == 1 else 301,
        )
        assert got == pytest.approx(want, rel=1e-3), f"case {case}: {got} vs {want}"
    report_pass(1, "marginal correctness", start, 60)


def test_c2_em_monotonicity():
    """EM training log-likelihood never decreases, to 1e-9."""
    start = time.time()
    rng = np.random.default_rng(202)
    for case in range(50):
        n_points = int(rng.integers(20, 501))
        n_features = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        X = blobby_points(rng, n_points, n_features, n_blobs=int(rng.integers(1, 4)))
        model = fit_gmm(X, k=k, seed=case)
        lls = np.array(model.em_log_likelihoods)
        drops = np.diff(lls)
        assert np.all(drops >= -1e-9), f"case {case}: worst drop {drops.min()}"
    report_pass(2, "EM monotonicity", start, 120)


def test_c3_greedy_step_oracles():
    """Every greedy step matches per-step brute force over all candidates."""
    start = time.time()
    rng = np.random.default_rng(303)
    config_template = dict(members_per_k=2, component_counts=(2, 3))
    for case in range(20):
        n = int(rng.integers(2, 9))
        X = blobby_points(rng, int(rng.integers(60, 150)), n)
        model = egmm_fit(X, EgmmConfig(seed=case, **config_template))
        x = X[int(rng.integers(len(X)))] + rng.normal(scale=2.0, size=n)

        sfe = explain_seq_marg(model, x)
        chosen: list[int] = []
        for e in sfe.order:
            remaining = [j for j in range(n) if j not in chosen]
            best = min(remaining, key=lambda j: (model.log_marginal(x, (*chosen, j)), j))
            assert e == best, f"case {case}: seqmarg step {len(chosen)+1}"
            chosen.append(e)

        if n >= 2:
            sfe = explain_seq_do(model, x, k=n - 1)
            chosen = []
            for e in sfe.order:
                remaining = [j for j in range(n) if j not in chosen]
                best = min(
                    remaining,
                    key=lambda j: (
                        -model.log_marginal(x, tuple(t for t in remaining if t != j)),
                        j,
                    ),
                )
                assert e == best, f"case {case}: seqdo step {len(chosen)+1}"
                chosen.append(e)
    report_pass(3, "greedy step oracles", start, 60)


def per_tau_mfp_curve(curve_values, tau):
    for i, v in enumerate(curve_values, start=1):
        if v <= tau:
            return i
    return len(curve_values) + 1


def per_tau_mfp_best_probs(probs, tau):
    for i, p in enumerate(probs, start=1):
        if p < tau:
            return i
    return len(probs) + 1


def synthetic_benchmark(rng, n, n_normal, n_anomaly, style):
    normal = rng.normal(size=(n_normal, n))
    if style == "shift-all":
        anomaly = rng.normal(loc=3.0, size=(n_anomaly, n))
    elif style == "shift-one":
        anomaly = rng.normal(size=(n_anomaly, n))
        anomaly[:, 0] += 5.0
    elif style == "scatter":
        anomaly = rng.normal(scale=4.0, size=(n_anomaly, n))
    else:  # two-sided
        anomaly = rng.normal(size=(n_anomaly, n))
        anomaly[: n_anomaly // 2, 0] += 4.0
        anomaly[n_anomaly // 2 :, -1] -= 4.0
    points = np.vstack([normal, anomaly])
    labels = np.concatenate([np.zeros(n_normal, bool), np.ones(n_anomaly, bool)])
    return Dataset(points=points, labels=labels, feature_names=tuple(f"f{i}" for i in range(n)))


def test_c4_opt_oracle_dominance():
    """OptOracle's per-threshold MFP never exceeds any method's, zero violations."""
    start = time.time()
    rng = np.random.default_rng(404)
    cases = [
        (3, "shift-all"),
        (4, "shift-one"),
        (5, "scatter"),
        (6, "two-sided"),
        (6, "shift-all"),
    ]
    violations = 0
    checks = 0
    for case_idx, (n, style) in enumerate(cases):
        dataset = synthetic_benchmark(rng, n, n_normal=150, n_anomaly=18, style=style)
        config = EvalConfig(
            top_fraction=0.5,
            random_repeats=5,
            methods=frozenset(Method),
            seed=case_idx,
        )
        report = run_evaluation(
            dataset,
            config,
            egmm_config=EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=case_idx),
            forest_config=ForestConfig(tree_count=60),
        )
        oracle_rows = {
            r.point_index: r for r in report.per_point if r.method is Method.OPT_ORACLE
        }
        for row in report.per_point:
            if row.method in (Method.OPT_ORACLE, Method.RANDOM):
                continue
            probs = oracle_rows[row.point_index].curve
            for tau in TAUS:
                checks += 1
                if per_tau_mfp_best_probs(probs, tau) > per_tau_mfp_curve(row.curve, tau):
                    violations += 1
        # Dominance also holds against individual random explanations.
        analyst = AnalystModel(
            dataset, ForestConfig(tree_count=60), seed=report_seed_for(config)
        )
        for row in list(oracle_rows.values())[:2]:
            x = dataset.points[row.point_index]
            for r in range(5):
                sfe = explain_random(n, seed=1000 * case_idx + r)
                curve = certainty_curve(analyst, x, sfe)
                for tau in TAUS:
                    checks += 1
                    if per_tau_mfp_best_probs(row.curve, tau) > per_tau_mfp_curve(curve, tau):
                        violations += 1
    assert checks > 500
    assert violations == 0, f"{violations} dominance violations in {checks} checks"
    report_pass(4, "OptOracle dominance", start, 300)


def report_seed_for(config):
    from sfexplain.seeding import TAG_ANALYST, derive_seed

    return derive_seed(config.seed, TAG_ANALYST)


def test_c5_oracle_detector_first_feature_identity():
    """With the analyst as detector, the greedy first pick is the best singleton."""
    start = time.time()
    rng = np.random.default_rng(505)
    matched = 0
    for case in range(2):
        n = 6
        dataset = synthetic_benchmark(
            rng, n, n_normal=240, n_anomaly=60, style="two-sided" if case else "scatter"
        )
        egmm = egmm_fit(
            dataset.points, EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=case)
        )
        ranking = rank_points(egmm, dataset)
        selected = select_evaluation_anomalies(ranking.tolist(), dataset.labels, 1.0)
        analyst = AnalystModel(dataset, ForestConfig(tree_count=60), seed=case)
        detector = AnalystDensityOracle(analyst)
        for idx in selected:
            x = dataset.points[idx]
            first = explain_seq_marg(detector, x, k=1).order[0]
            [(subset, _)] = explain_opt_oracle(analyst, x, 1)
            best = subset[0]
            assert first == best, f"point {idx}: {first} != {best}"
            matched += 1
            if matched >= 100:
                break
    assert matched >= 100
    report_pass(5, "oracle-detector first-feature identity", start, 300)


def load_real_mothers():
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_diabetes()
    cut = np.quantile(raw.target, 0.90)
    diabetes = MotherSet(
        points=raw.data,
        classes=tuple("high" if t >= cut else "typical" for t in raw.target),
        feature_names=tuple(raw.feature_names),
    )
    raw = sklearn_datasets.load_iris()
    iris = MotherSet(
        points=raw.data,
        classes=tuple(str(c) for c in raw.target),
        feature_names=tuple(str(f) for f in raw.feature_names),
    )
    return diabetes, iris


def pooled_mother_evaluation(mother, anomaly_class, size, frac, n_benchmarks, seed=0):
    """Paper-style per-mother aggregation: pool evaluated anomalies across
    benchmarks sampled from one mother set; the analyst trains once on the
    full labeled mother set."""
    full = Dataset(
        points=mother.points,
        labels=np.array([c == anomaly_class for c in mother.classes]),
        feature_names=mother.feature_names,
    )
    analyst = AnalystModel(full, ForestConfig(), seed=seed)
    values = {m: [] for m in ALL_SFE_METHODS}
    flags = {m: [] for m in ALL_SFE_METHODS}
    for b in range(n_benchmarks):
        spec = BenchmarkSpec(
            anomaly_classes={anomaly_class},
            anomaly_fraction=frac,
            target_size=size,
            seed=100 + b,
        )
        bench = sample_benchmark_split(mother, spec)[0]
        config = EvalConfig(
            top_fraction=0.3, random_repeats=100, methods=ALL_SFE_METHODS, seed=seed
        )
        try:
            report = run_evaluation(
                bench, config, egmm_config=EgmmConfig(seed=seed + b), analyst=analyst
            )
        except NoAnomaliesSelected:
            continue
        for r in report.per_point:
            values[r.method].append(r.expected_mfp)
            flags[r.method].append(r.censored)
    return {m: _summary(values[m], flags[m]) for m in ALL_SFE_METHODS}


def assert_figure_ordering(name, summary):
    random_low = (
        summary[Method.RANDOM].mean_expected_mfp - summary[Method.RANDOM].ci95_half_width
    )
    for m in (Method.SEQ_MARG, Method.IND_MARG):
        mean = summary[m].mean_expected_mfp
        high = mean + summary[m].ci95_half_width
        assert mean <= summary[Method.RANDOM].mean_expected_mfp, f"{name}: {m} mean"
        assert high < random_low, (
            f"{name}: {m.value} CI [{mean:.2f}+-{summary[m].ci95_half_width:.2f}] overlaps "
            f"random [{summary[Method.RANDOM].mean_expected_mfp:.2f}"
            f"+-{summary[Method.RANDOM].ci95_half_width:.2f}]"
        )
    assert (
        summary[Method.SEQ_MARG].mean_expected_mfp <= summary[Method.SEQ_DO].mean_expected_mfp
    ), f"{name}: sequential marginal vs dropout"
    assert (
        summary[Method.IND_MARG].mean_expected_mfp <= summary[Method.IND_DO].mean_expected_mfp
    ), f"{name}: independent marginal vs dropout"


def test_c6_real_data_qualitative_ordering():
    """On two real mother sets, marginal methods beat random with separated
    CIs and do no worse than dropout."""
    start = time.time()
    diabetes, iris = load_real_mothers()
    diabetes_summary = pooled_mother_evaluation(diabetes, "high", size=250, frac=0.06, n_benchmarks=6)
    assert_figure_ordering("diabetes", diabetes_summary)
    iris_summary = pooled_mother_evaluation(iris, "1", size=100, frac=0.05, n_benchmarks=40)
    assert_figure_ordering("iris", iris_summary)
    for name, summary in (("diabetes", diabetes_summary), ("iris", iris_summary)):
        for m in (Method.SEQ_MARG, Method.IND_MARG, Method.SEQ_DO, Method.IND_DO, Method.RANDOM):
            s = summary[m]
            print(
                f"  {name:<9} {m.value:<8} mean={s.mean_expected_mfp:.3f} "
                f"ci95={s.ci95_half_width:.3f} n={s.n_anomalies} censored={s.censored_count}"
            )
    report_pass(6, "real-data qualitative ordering", start, 1800)


def test_c7_single_critical_feature_synthetic():
    """With one feature shifted 8 sigma, every informed method needs about one
    feature while random needs about (n+1)/2."""
    start = time.time()
    rng = np.random.default_rng(707)
    n = 5
    benchmark = make_single_deviant_dataset(
        rng, n_normal=300, n_anomaly=30, n_features=n, deviant=0, shift=8.0
    )
    analyst_pool = make_single_deviant_dataset(
        rng, n_normal=300, n_anomaly=60, n_features=n, deviant=0, shift=8.0
    )
    config = EvalConfig(
        top_fraction=0.15, random_repeats=100, methods=ALL_SFE_METHODS, seed=7
    )
    report = run_evaluation(
        benchmark,
        config,
        egmm_config=EgmmConfig(seed=7),
        forest_config=ForestConfig(),
        analyst_data=analyst_pool,
    )
    for m in (Method.IND_MARG, Method.SEQ_MARG, Method.IND_DO, Method.SEQ_DO):
        mean = report.per_method[m].mean_expected_mfp
        assert mean <= 1.2, f"{m.value}: mean {mean:.3f} > 1.2"
    random_mean = report.per_method[Method.RANDOM].mean_expected_mfp
    analytic = (n + 1) / 2
    assert abs(random_mean - analytic) <= 0.1 * analytic, (
        f"random mean {random_mean:.3f} outside {analytic}+-10%"
    )
    report_pass(7, "single critical feature synthetic", start, 300)


def test_c8_cli_evaluation_determinism(tmp_path):
    """Two identically seeded CLI evaluations produce byte-identical outputs."""
    start = time.time()
    rng = np.random.default_rng(808)
    dataset = synthetic_benchmark(rng, 3, n_normal=90, n_anomaly=10, style="shift-all")
    csv_path = tmp_path / "bench.csv"
    save_csv(dataset, csv_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"seed": 5, "egmm": {"members_per_k": 2, "component_counts": [2, 3], "seed": 5},'
        ' "forest": {"tree_count": 40, "seed": 5},'
        ' "eval": {"top_fraction": 0.5, "random_repeats": 10,'
        ' "methods": ["indmarg", "seqmarg", "inddo", "seqdo", "random", "optoracle"], "seed": 5}}'
    )
    outputs = []
    for run in ("run1", "run2"):
        out_dir = tmp_path / run
        code = cli_main(
            ["evaluate", str(csv_path), "-o", str(out_dir), "--config", str(config_path)]
        )
        assert code == 0
        outputs.append(
            (
                (out_dir / "summary.csv").read_bytes(),
                (out_dir / "per_point.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    report_pass(8, "CLI evaluation determinism", start, 300)
