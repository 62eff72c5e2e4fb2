import math

import numpy as np
import pytest

from conftest import make_labeled_dataset, make_single_deviant_dataset
from sfexplain.analyst import AnalystModel, ThresholdDistribution, certainty_curve, expected_mfp
from sfexplain.config import from_dict
from sfexplain.dataset import Dataset
from sfexplain.density import EgmmConfig, egmm_fit
from sfexplain.evaluate import (
    AnalystDensityOracle,
    CombinatorialBudgetExceeded,
    DetectorMode,
    EvalConfig,
    NoAnomaliesSelected,
    explain_opt_oracle,
    run_evaluation,
    select_evaluation_anomalies,
    write_per_point_csv,
    write_summary_csv,
)
from sfexplain.explain import Method, explain_seq_marg
from sfexplain.forest import ForestConfig

UNIFORM = ThresholdDistribution.uniform()
SMALL_EGMM = EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=0)
SMALL_FOREST = ForestConfig(tree_count=30)


class StubAnalyst:
    """Deterministic analyst over explicit subset probabilities."""

    def __init__(self, n_features, prob_fn):
        self.n_features = n_features
        self.prob_fn = prob_fn
        self.calls = 0

    def prob_normal(self, x, subset):
        self.calls += 1
        return self.prob_fn(tuple(sorted(set(subset))))


class TestSelectEvaluationAnomalies:
    def test_top_slice_filters_anomalies_in_rank_order(self):
        ranking = list(range(100))
        labels = np.zeros(100, bool)
        labels[2] = True  # rank 3
        labels[49] = True  # rank 50
        assert select_evaluation_anomalies(ranking, labels, 0.1) == [2]

    def test_full_fraction_returns_all_anomalies(self):
        ranking = [3, 1, 2, 0]
        labels = np.array([True, False, True, False])
        assert select_evaluation_anomalies(ranking, labels, 1.0) == [2, 0]

    def test_no_anomalies_in_slice(self):
        ranking = list(range(10))
        labels = np.zeros(10, bool)
        labels[9] = True
        with pytest.raises(NoAnomaliesSelected):
            select_evaluation_anomalies(ranking, labels, 0.1)

    def test_requires_permutation(self):
        with pytest.raises(ValueError):
            select_evaluation_anomalies([0, 0, 1], np.zeros(3, bool), 1.0)

    @pytest.mark.parametrize("fraction", [-0.5, 0.0, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="top_fraction"):
            select_evaluation_anomalies([3, 1, 2, 0], np.ones(4, bool), fraction)


class TestOptOracle:
    def test_size_one_is_best_singleton(self):
        probs = {(0,): 0.9, (1,): 0.2, (2,): 0.5}
        stub = StubAnalyst(3, lambda s: probs.get(s, 0.4))
        [(subset, prob)] = explain_opt_oracle(stub, np.zeros(3), 1)
        assert subset == (1,)
        assert prob == 0.2

    def test_ties_keep_the_first_subset_in_combinations_order(self):
        stub = StubAnalyst(4, lambda s: 0.5)
        assert explain_opt_oracle(stub, np.zeros(4), 3) == (((0,), 0.5), ((0, 1), 0.5), ((0, 1, 2), 0.5))

    def test_query_count_n3_k3(self):
        stub = StubAnalyst(3, lambda s: 0.5)
        explain_opt_oracle(stub, np.zeros(3), 3)
        assert stub.calls == 3 + 3 + 1

    def test_best_prob_beats_every_subset(self):
        # Re-enumeration oracle on n=6 with an arbitrary deterministic
        # probability function.
        def prob_fn(subset):
            h = sum((j + 1) ** 2 for j in subset) * 0.37
            return h - math.floor(h)

        stub = StubAnalyst(6, prob_fn)
        result = explain_opt_oracle(stub, np.zeros(6), 4)
        from itertools import combinations

        assert len(result) == 4
        for size, (best, prob) in enumerate(result, start=1):
            assert len(best) == size and prob == prob_fn(best)
            for subset in combinations(range(6), size):
                assert prob <= prob_fn(tuple(subset)) + 1e-15

    def test_budget_guard(self):
        stub = StubAnalyst(40, lambda s: 0.5)
        with pytest.raises(CombinatorialBudgetExceeded):
            explain_opt_oracle(stub, np.zeros(40), 10)


class TestOptOracleMfp:
    def opt_oracle_mfp(self, probs, dist):
        pairs = tuple((tuple(range(i)), p) for i, p in enumerate(probs, start=1))
        return expected_mfp(tuple(p for _, p in pairs), dist, strict=True)

    def test_strict_threshold(self):
        point_mass = ThresholdDistribution(support=((0.3, 1.0),))
        value, censored = self.opt_oracle_mfp((0.4, 0.2, 0.05), point_mass)
        assert value == 2
        assert not censored
        # Equality does not detect under the strict rule, but does for methods.
        assert self.opt_oracle_mfp((0.4, 0.3, 0.05), point_mass) == (3, False)
        assert expected_mfp((0.4, 0.3, 0.05), point_mass) == (2, False)

    def test_immediate_detection(self):
        value, censored = self.opt_oracle_mfp((0.05, 0.04, 0.03), UNIFORM)
        assert value == pytest.approx(1.0)
        assert not censored

    def test_censored_at_k_plus_one(self):
        value, censored = self.opt_oracle_mfp((0.15, 0.12, 0.11), ThresholdDistribution(support=((0.1, 1.0),)))
        assert censored
        assert value == 4


class TestAnalystDensityOracle:
    def test_oracle_mode_values_are_log_probabilities(self):
        data = make_labeled_dataset(np.random.default_rng(2))
        analyst = AnalystModel(data, SMALL_FOREST, seed=2)
        detector = AnalystDensityOracle(analyst)
        value = detector.log_marginal(np.zeros(3), (0, 1))
        assert value <= 0.0
        assert value == math.log(analyst.prob_normal(np.zeros(3), (0, 1)))

    def test_oracle_mode_first_pick_matches_opt_oracle_singleton(self):
        data = make_single_deviant_dataset(np.random.default_rng(3))
        analyst = AnalystModel(data, SMALL_FOREST, seed=3)
        detector = AnalystDensityOracle(analyst)
        for idx in np.flatnonzero(data.labels)[:10]:
            x = data.points[idx]
            first = explain_seq_marg(detector, x, k=1).order[0]
            [(subset, _)] = explain_opt_oracle(analyst, x, 1)
            assert first == subset[0]


def constant_prob_dataset():
    # Identical feature rows make every split impossible, so the analyst
    # returns exactly 0.5 everywhere.
    points = np.tile([[1.0, 2.0]], (10, 1))
    labels = np.zeros(10, bool)
    labels[0] = True
    return Dataset(points=points, labels=labels, feature_names=("a", "b"))


class TestRunEvaluation:
    def prefit_egmm(self):
        rng = np.random.default_rng(5)
        return egmm_fit(rng.normal(size=(100, 2)), SMALL_EGMM)

    def test_constant_analyst_censors_everything(self):
        dataset = constant_prob_dataset()
        config = EvalConfig(methods=frozenset({Method.RANDOM}), random_repeats=5, seed=1)
        report = run_evaluation(
            dataset, config, forest_config=SMALL_FOREST, egmm=self.prefit_egmm()
        )
        summary = report.per_method[Method.RANDOM]
        # k = n = 2, so every repeat censors at 3.
        assert summary.mean_expected_mfp == pytest.approx(3.0)
        assert summary.censored_count == summary.n_anomalies

    def test_single_anomaly_has_zero_ci(self):
        dataset = constant_prob_dataset()
        config = EvalConfig(methods=frozenset({Method.RANDOM}), random_repeats=3, seed=1)
        report = run_evaluation(
            dataset, config, forest_config=SMALL_FOREST, egmm=self.prefit_egmm()
        )
        summary = report.per_method[Method.RANDOM]
        assert summary.n_anomalies == 1
        assert summary.ci95_half_width == 0.0

    def test_seq_marg_beats_random_on_single_deviant_feature(self):
        dataset = make_single_deviant_dataset(np.random.default_rng(6))
        config = EvalConfig(
            top_fraction=0.2,
            methods=frozenset({Method.SEQ_MARG, Method.RANDOM}),
            random_repeats=20,
            seed=2,
        )
        report = run_evaluation(
            dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST
        )
        seq = report.per_method[Method.SEQ_MARG]
        rnd = report.per_method[Method.RANDOM]
        assert seq.mean_expected_mfp < rnd.mean_expected_mfp

    def test_reproducible_reports(self):
        dataset = make_labeled_dataset(np.random.default_rng(7), n_normal=80, n_anomaly=12)
        config = EvalConfig(
            top_fraction=0.3,
            methods=frozenset({Method.IND_MARG, Method.RANDOM}),
            random_repeats=5,
            seed=3,
        )
        r1 = run_evaluation(dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST)
        r2 = run_evaluation(dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST)
        assert r1 == r2

    @pytest.mark.parametrize("mode", list(DetectorMode))
    def test_density_methods_explain_with_the_mode_detector(self, mode):
        # egmm mode explains with the ensemble itself, oracle mode with the
        # analyst's own log P(normal | x_S).
        dataset = make_labeled_dataset(np.random.default_rng(14), n_normal=80, n_anomaly=12)
        egmm = egmm_fit(dataset.points, SMALL_EGMM)
        analyst = AnalystModel(dataset, SMALL_FOREST, seed=4)
        config = EvalConfig(
            top_fraction=0.3, methods=frozenset({Method.SEQ_MARG}), detector_mode=mode, seed=4
        )
        report = run_evaluation(dataset, config, egmm=egmm, analyst=analyst)
        detector = egmm if mode is DetectorMode.EGMM else AnalystDensityOracle(analyst)
        assert report.per_point
        for row in report.per_point:
            x = dataset.points[row.point_index]
            assert row.curve == certainty_curve(analyst, x, explain_seq_marg(detector, x, dataset.n_features))

    def test_opt_oracle_dominates_all_methods(self):
        dataset = make_labeled_dataset(
            np.random.default_rng(8), n_normal=120, n_anomaly=20, n_features=4, shift=3.0
        )
        config = EvalConfig(top_fraction=0.5, random_repeats=5, seed=4)
        report = run_evaluation(dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST)
        assert_opt_oracle_dominates(report)

    def test_method_failure_aborts_the_report(self):
        # OptOracle on 40 features blows the subset budget; the whole run
        # must fail rather than silently dropping the method.
        rng = np.random.default_rng(13)
        points = rng.normal(size=(60, 40))
        points[:6] += 4.0
        labels = np.zeros(60, bool)
        labels[:6] = True
        dataset = Dataset(points=points, labels=labels, feature_names=tuple(f"f{i}" for i in range(40)))
        config = EvalConfig(
            top_fraction=1.0, methods=frozenset({Method.IND_MARG, Method.OPT_ORACLE}), seed=1
        )
        egmm = egmm_fit(points, EgmmConfig(members_per_k=1, component_counts=(1,), seed=1))
        with pytest.raises(CombinatorialBudgetExceeded):
            run_evaluation(dataset, config, forest_config=SMALL_FOREST, egmm=egmm)

    def test_rejects_dataset_without_anomalies(self):
        rng = np.random.default_rng(9)
        dataset = Dataset(
            points=rng.normal(size=(20, 2)),
            labels=np.zeros(20, bool),
            feature_names=("a", "b"),
        )
        with pytest.raises(ValueError, match="anomaly"):
            run_evaluation(dataset, EvalConfig(), egmm=self.prefit_egmm())

    def test_separate_analyst_data_used(self):
        rng = np.random.default_rng(10)
        dataset = make_labeled_dataset(rng, n_normal=60, n_anomaly=10)
        analyst_data = make_labeled_dataset(rng, n_normal=60, n_anomaly=10)
        config = EvalConfig(
            top_fraction=1.0, methods=frozenset({Method.IND_MARG}), seed=5
        )
        with_split = run_evaluation(
            dataset,
            config,
            egmm_config=SMALL_EGMM,
            forest_config=SMALL_FOREST,
            analyst_data=analyst_data,
        )
        without = run_evaluation(
            dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST
        )
        assert with_split != without


def per_tau_mfp_from_curve(curve, tau):
    for i, v in enumerate(curve, start=1):
        if v <= tau:
            return i
    return len(curve) + 1


def per_tau_mfp_from_best_probs(probs, tau):
    for i, p in enumerate(probs, start=1):
        if p < tau:
            return i
    return len(probs) + 1


def assert_opt_oracle_dominates(report):
    """Per anomaly and per threshold, OptOracle's MFP never exceeds any method's."""
    oracle_rows = {r.point_index: r for r in report.per_point if r.method is Method.OPT_ORACLE}
    taus = (0.1, 0.2, 0.3)
    checked = 0
    for row in report.per_point:
        if row.method in (Method.OPT_ORACLE, Method.RANDOM):
            continue
        oracle = oracle_rows[row.point_index]
        for tau in taus:
            method_mfp = per_tau_mfp_from_curve(row.curve, tau)
            oracle_mfp = per_tau_mfp_from_best_probs(oracle.curve, tau)
            assert oracle_mfp <= method_mfp, (
                f"point {row.point_index}, method {row.method}, tau {tau}: "
                f"oracle {oracle_mfp} > method {method_mfp}"
            )
            checked += 1
    assert checked > 0


class TestReportOutput:
    def small_report(self):
        dataset = make_labeled_dataset(np.random.default_rng(11), n_normal=60, n_anomaly=10)
        config = EvalConfig(
            top_fraction=0.5,
            methods=frozenset({Method.IND_MARG, Method.RANDOM}),
            random_repeats=3,
            seed=6,
        )
        return run_evaluation(dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST)

    def test_summary_csv_has_one_row_per_method(self, tmp_path):
        report = self.small_report()
        path = tmp_path / "summary.csv"
        write_summary_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,mean_expected_mfp,ci95_half_width,n_anomalies,censored_count"
        assert len(lines) == 1 + len(report.per_method)

    def test_per_point_csv_row_count(self, tmp_path):
        report = self.small_report()
        path = tmp_path / "per_point.csv"
        write_per_point_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(report.per_point)

    def test_oracle_mode_star_suffix(self):
        dataset = make_single_deviant_dataset(np.random.default_rng(12), n_normal=80, n_anomaly=10)
        config = EvalConfig(
            top_fraction=1.0,
            methods=frozenset({Method.IND_MARG, Method.RANDOM}),
            detector_mode=DetectorMode.ORACLE,
            random_repeats=2,
            seed=7,
        )
        report = run_evaluation(dataset, config, egmm_config=SMALL_EGMM, forest_config=SMALL_FOREST)
        assert report.method_label(Method.IND_MARG) == "indmarg*"
        assert report.method_label(Method.RANDOM) == "random"


class TestEvalConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            from_dict(EvalConfig, {"top_fraction": 0.5, "typo": 1})

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            EvalConfig(top_fraction=0.0)
