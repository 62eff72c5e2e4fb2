import math
import re
from itertools import combinations

import numpy as np
import pytest

from conftest import make_labeled_dataset, make_single_deviant_dataset
from sfexplain.analyst import AnalystModel, ThresholdDistribution, certainty_curve, expected_mfp
from sfexplain.config import from_dict
from sfexplain.dataset import Dataset
from sfexplain.density import EgmmConfig, egmm_fit
from sfexplain.errors import SfexplainError
import sfexplain
import sfexplain.analyst
import sfexplain.density
import sfexplain.evaluate
from sfexplain.evaluate import (
    OPT_ORACLE_SIZE_CAP,
    AnalystDensityOracle,
    CombinatorialBudgetExceeded,
    DetectorMode,
    EvalConfig,
    EvaluationReport,
    MethodSummary,
    NoAnomaliesSelected,
    PointResult,
    _summary,
    check_evaluation_inputs,
    explain_opt_oracle,
    format_summary_table,
    run_evaluation,
    select_evaluation_anomalies,
    write_per_point_csv,
    write_summary_csv,
)
from sfexplain.explain import Method, density_explainers, explain_point, explain_seq_marg, subset_key
from sfexplain.forest import ForestConfig
from sfexplain.seeding import TAG_ANALYST, derive_seed

UNIFORM = ThresholdDistribution.uniform()
SMALL_EGMM = EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=0)
SMALL_FOREST = ForestConfig(tree_count=30)


def analyst_for(dataset, config):
    """The analyst sfexplain evaluate builds from the benchmark alone."""
    return AnalystModel(dataset, SMALL_FOREST, seed=derive_seed(config.seed, TAG_ANALYST))


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

    @pytest.mark.parametrize("labels", [np.array([True]), np.ones(4, bool)], ids=["fewer", "more"])
    def test_labels_must_match_the_ranking(self, labels):
        # Fewer labels than points raised a bare IndexError; more were ignored.
        with pytest.raises(ValueError, match="one label per ranked point"):
            select_evaluation_anomalies([0, 1, 2], labels, 1.0)


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
        report = run_evaluation(dataset, config, self.prefit_egmm(), analyst_for(dataset, config))
        summary = report.per_method[Method.RANDOM]
        # k = n = 2, so every repeat censors at 3.
        assert summary.mean_expected_mfp == pytest.approx(3.0)
        assert summary.censored_count == summary.n_anomalies

    def test_single_anomaly_has_zero_ci(self):
        dataset = constant_prob_dataset()
        config = EvalConfig(methods=frozenset({Method.RANDOM}), random_repeats=3, seed=1)
        report = run_evaluation(dataset, config, self.prefit_egmm(), analyst_for(dataset, config))
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
        report = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
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
        r1 = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
        r2 = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
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
        report = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
        assert_opt_oracle_dominates(report)

    def test_method_failure_aborts_the_report(self):
        # OptOracle on 40 features blows the subset budget; the whole run
        # must fail rather than silently dropping the method, and before it
        # trains any forest, also for the oracle-mode explainers.
        rng = np.random.default_rng(13)
        points = rng.normal(size=(60, 40))
        points[:6] += 4.0
        labels = np.zeros(60, bool)
        labels[:6] = True
        dataset = Dataset(points=points, labels=labels, feature_names=tuple(f"f{i}" for i in range(40)))
        egmm = egmm_fit(points, EgmmConfig(members_per_k=1, component_counts=(1,), seed=1))
        for mode in DetectorMode:
            config = EvalConfig(
                top_fraction=1.0,
                methods=frozenset({Method.IND_MARG, Method.OPT_ORACLE}),
                detector_mode=mode,
                seed=1,
            )
            analyst = analyst_for(dataset, config)
            with pytest.raises(CombinatorialBudgetExceeded):
                run_evaluation(dataset, config, egmm, analyst)
            assert analyst.trained_count == 0

    @pytest.mark.parametrize(
        "methods", [frozenset(Method), {Method.IND_DO}, {Method.SEQ_DO}], ids=["all", "inddo", "seqdo"]
    )
    def test_dropout_on_one_feature_fails_before_training(self, methods):
        # Dropout needs 2 features. Under the default methods, the error came
        # only after the indmarg explanation's forest had trained.
        dataset = make_labeled_dataset(np.random.default_rng(16), n_normal=60, n_anomaly=10, n_features=1)
        egmm = egmm_fit(dataset.points, EgmmConfig(members_per_k=1, component_counts=(1,), seed=1))
        config = EvalConfig(methods=methods)
        analyst = analyst_for(dataset, config)
        with pytest.raises(ValueError, match="dropout needs at least 2 features"):
            run_evaluation(dataset, config, egmm, analyst)
        assert analyst.trained_count == 0

    @pytest.mark.parametrize("max_prefix, expected", [(None, (12, 10)), (3, (3, 3)), (20, (12, 10))])
    def test_pre_flight_returns_the_explanation_lengths(self, max_prefix, expected):
        # k is max_prefix capped at the width; optoracle's largest size is k
        # capped at OPT_ORACLE_SIZE_CAP.
        dataset = make_labeled_dataset(np.random.default_rng(17), n_normal=20, n_anomaly=2, n_features=12)
        config = EvalConfig(max_prefix=max_prefix)
        assert check_evaluation_inputs(dataset, dataset, config) == expected

    def test_rejects_dataset_without_anomalies(self):
        rng = np.random.default_rng(9)
        dataset = Dataset(
            points=rng.normal(size=(20, 2)),
            labels=np.zeros(20, bool),
            feature_names=("a", "b"),
        )
        with pytest.raises(ValueError, match="anomaly"):
            run_evaluation(dataset, EvalConfig(), self.prefit_egmm(), analyst_for(dataset, EvalConfig()))

    @pytest.mark.parametrize(
        "names", [("f1", "f0", "f2"), ("f0", "f1", "f2", "f3"), ("f0", "f1")], ids=["reordered", "wider", "narrower"]
    )
    def test_analyst_columns_must_be_the_benchmarks(self, names):
        # At the same width the analyst would silently read the wrong columns;
        # at another it used to fail deep in an explainer with a bare error.
        rng = np.random.default_rng(15)
        dataset = make_labeled_dataset(rng, n_normal=60, n_anomaly=10)
        pool = make_labeled_dataset(rng, n_normal=60, n_anomaly=10, n_features=len(names))
        analyst_data = Dataset(points=pool.points, labels=pool.labels, feature_names=names)
        analyst = AnalystModel(analyst_data, SMALL_FOREST)
        egmm = egmm_fit(dataset.points, EgmmConfig(members_per_k=1, component_counts=(2,), seed=0))
        expected = f"the analyst's columns {list(names)} are not the benchmark's ['f0', 'f1', 'f2']"
        with pytest.raises(SfexplainError, match=re.escape(expected)):
            run_evaluation(dataset, EvalConfig(top_fraction=1.0, random_repeats=2, seed=5), egmm=egmm, analyst=analyst)

    def test_separate_analyst_data_used(self):
        rng = np.random.default_rng(10)
        dataset = make_labeled_dataset(rng, n_normal=60, n_anomaly=10)
        analyst_data = make_labeled_dataset(rng, n_normal=60, n_anomaly=10)
        config = EvalConfig(
            top_fraction=1.0, methods=frozenset({Method.IND_MARG}), seed=5
        )
        egmm = egmm_fit(dataset.points, SMALL_EGMM)
        with_split = run_evaluation(dataset, config, egmm, analyst_for(analyst_data, config))
        without = run_evaluation(dataset, config, egmm, analyst_for(dataset, config))
        assert with_split != without


class Recorder:
    """A density oracle that records each canonical subset it is asked for."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.asked = set()

    def log_marginal(self, x, subset):
        self.asked.add(subset_key(subset, len(x)))
        return self.oracle.log_marginal(x, subset)


def one_query_report(dataset, config, egmm, analyst):
    """run_evaluation rebuilt from the public calls alone, with no memo and
    no held rows: the reference for the run's one query path."""
    n = dataset.n_features
    k = n if config.max_prefix is None else min(config.max_prefix, n)
    ranking = sfexplain.density.rank_points(egmm, dataset)
    selected = select_evaluation_anomalies(ranking.tolist(), dataset.labels, config.top_fraction)
    detector = egmm if config.detector_mode is DetectorMode.EGMM else AnalystDensityOracle(analyst)
    methods = [m for m in Method if m in config.methods]
    rows, values, flags = [], {m: [] for m in methods}, {m: [] for m in methods}
    for idx in selected:
        x = dataset.points[idx]
        for method in methods:
            if method is Method.OPT_ORACLE:
                curves = [tuple(p for _, p in explain_opt_oracle(analyst, x, min(k, OPT_ORACLE_SIZE_CAP)))]
            else:
                sfes = explain_point(detector, x, method, k, config.seed, idx, config.random_repeats)
                curves = [certainty_curve(analyst, x, sfe) for sfe in sfes]
            scored = [expected_mfp(c, config.thresholds, strict=method is Method.OPT_ORACLE) for c in curves]
            value = float(np.mean([v for v, _ in scored]))
            censored = any(c for _, c in scored)
            values[method].append(value)
            flags[method].append(censored)
            rows.append(PointResult(idx, method, value, censored, tuple(np.mean(curves, axis=0).tolist())))
    per_method = {m: _summary(values[m], flags[m]) for m in methods}
    return EvaluationReport(per_method, tuple(rows), config.detector_mode)


class TestPlannedEvaluation:
    """run_evaluation asks every analyst query through prob_normal, holding
    the selected anomalies first."""

    def setup(self, mode=DetectorMode.EGMM, methods=frozenset(Method), max_prefix=None):
        # Six anomalies, each off on one feature; three rank in the top 10%.
        points = np.random.default_rng(21).normal(size=(100, 4))
        points[np.arange(6), np.arange(6) % 4] += 5.0
        dataset = Dataset(points=points, labels=np.arange(100) < 6, feature_names=("a", "b", "c", "d"))
        config = EvalConfig(
            top_fraction=0.1, random_repeats=4, methods=methods, max_prefix=max_prefix, detector_mode=mode, seed=6
        )
        return dataset, config, egmm_fit(dataset.points, SMALL_EGMM)

    @pytest.mark.parametrize("mode", list(DetectorMode))
    @pytest.mark.parametrize("max_prefix", [None, 2])
    def test_report_equals_the_one_query_report(self, mode, max_prefix):
        dataset, config, egmm = self.setup(mode, max_prefix=max_prefix)
        report = run_evaluation(dataset, config, egmm, analyst_for(dataset, config))
        assert len({r.point_index for r in report.per_point}) >= 2
        assert report == one_query_report(dataset, config, egmm, analyst_for(dataset, config))

    @pytest.mark.parametrize(
        "methods, mode",
        [
            (frozenset(Method), DetectorMode.EGMM),
            (frozenset({Method.SEQ_DO, Method.RANDOM}), DetectorMode.EGMM),
            (frozenset(Method), DetectorMode.ORACLE),
            (frozenset({Method.SEQ_DO, Method.RANDOM}), DetectorMode.ORACLE),
        ],
        ids=["all", "seqdo-random", "all-oracle", "seqdo-random-oracle"],
    )
    def test_cold_analyst_trains_each_distinct_subset_once(self, methods, mode):
        dataset, config, egmm = self.setup(mode, methods=methods)
        analyst = analyst_for(dataset, config)
        report = run_evaluation(dataset, config, egmm, analyst)
        oracle = AnalystDensityOracle(analyst_for(dataset, config))
        queried = []
        for idx in dict.fromkeys(r.point_index for r in report.per_point):
            x = dataset.points[idx]
            recorder = Recorder(egmm if mode is DetectorMode.EGMM else oracle)
            for method in config.methods - {Method.OPT_ORACLE}:
                for sfe in explain_point(recorder, x, method, None, config.seed, idx, config.random_repeats):
                    queried += [subset_key(sfe.order[: i + 1], 4) for i in range(len(sfe))]
            if mode is DetectorMode.ORACLE:  # the explainers ask each subset once per anomaly
                queried += recorder.asked
            if Method.OPT_ORACLE in config.methods:
                queried += [s for size in range(1, 5) for s in combinations(range(4), size)]
        distinct = len(set(queried))
        assert (analyst.trained_count, analyst.loaded_count) == (distinct, 0)
        assert analyst.cache_hits == len(queried) - distinct

    def test_oracle_explainers_reuse_the_forest_memo_across_anomalies(self):
        # Each anomaly's oracle-mode explainers ask for more than 6 distinct
        # subsets. They read the run's one table, as the curves do, so each
        # of the 15 subsets of 4 features trains once in the whole run.
        dataset, config, egmm = self.setup(DetectorMode.ORACLE)
        analyst = analyst_for(dataset, config)
        report = run_evaluation(dataset, config, egmm, analyst)
        selected = list(dict.fromkeys(r.point_index for r in report.per_point))
        oracle = AnalystDensityOracle(analyst_for(dataset, config))
        distinct = []
        for idx in selected:
            recorder = Recorder(oracle)
            for explainer in density_explainers().values():
                explainer(recorder, dataset.points[idx])
            distinct.append(len(recorder.asked))
        assert len(selected) == 3 and min(distinct) > 6
        assert analyst.trained_count == 15
        assert report == one_query_report(dataset, config, egmm, analyst_for(dataset, config))

    @pytest.mark.parametrize("mode", list(DetectorMode))
    def test_replaying_the_run_through_prob_normal_trains_nothing(self, mode):
        # The analyst keeps every answer of the run, so asking again for each
        # random prefix and each optoracle subset, one query at a time, reads
        # those answers and gives the run's curves.
        dataset, config, egmm = self.setup(mode)
        analyst = analyst_for(dataset, config)
        report = run_evaluation(dataset, config, egmm, analyst)
        trained, hits = analyst.trained_count, analyst.cache_hits
        curves = {(r.point_index, r.method): r.curve for r in report.per_point}
        selected = list(dict.fromkeys(r.point_index for r in report.per_point))
        for idx in selected:
            x = dataset.points[idx]
            sfes = explain_point(None, x, Method.RANDOM, None, config.seed, idx, config.random_repeats)
            replayed = [certainty_curve(analyst, x, sfe) for sfe in sfes]
            assert tuple(np.mean(replayed, axis=0).tolist()) == curves[idx, Method.RANDOM]
            best = explain_opt_oracle(analyst, x, 4)
            assert tuple(p for _, p in best) == curves[idx, Method.OPT_ORACLE]
        queries = len(selected) * (config.random_repeats * 4 + 15)
        assert (analyst.trained_count, analyst.loaded_count) == (trained, 0)
        assert analyst.cache_hits == hits + queries

    @pytest.mark.parametrize("mode", list(DetectorMode))
    def test_queries_pass_through_the_public_calls(self, mode, monkeypatch):
        # Counters wrapped around the public calls, wherever the package
        # holds them, see every analyst query, curve and optoracle search of
        # the run: each query either trains a forest or is a hit.
        calls = dict.fromkeys(["prob_normal", "certainty_curve", "explain_opt_oracle"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(AnalystModel, "prob_normal", counting("prob_normal", AnalystModel.prob_normal))
        for name in ("certainty_curve", "explain_opt_oracle"):
            original = getattr(sfexplain, name)
            for module in (sfexplain, sfexplain.analyst, sfexplain.evaluate):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        dataset, config, egmm = self.setup(mode)
        analyst = analyst_for(dataset, config)
        report = run_evaluation(dataset, config, egmm, analyst)
        anomalies = len({r.point_index for r in report.per_point})
        assert anomalies == 3
        assert calls["prob_normal"] == analyst.trained_count + analyst.cache_hits > 0
        assert calls["certainty_curve"] == (len(density_explainers()) + config.random_repeats) * anomalies
        assert calls["explain_opt_oracle"] == anomalies

    def test_density_oracle_answers_each_subset_once_per_anomaly(self, monkeypatch):
        dataset, config, egmm = self.setup(methods=frozenset(density_explainers()))
        calls = []
        query = sfexplain.density.egmm_log_marginal

        def counting(model, x, subset):
            calls.append((tuple(x), subset_key(subset, model.n)))
            return query(model, x, subset)

        monkeypatch.setattr(sfexplain.density, "egmm_log_marginal", counting)
        report = run_evaluation(dataset, config, egmm, analyst_for(dataset, config))
        planned = list(calls)
        assert len(planned) == len(set(planned))
        calls.clear()
        for idx in dict.fromkeys(r.point_index for r in report.per_point):
            for explainer in density_explainers().values():
                explainer(egmm, dataset.points[idx])
        assert set(planned) == set(calls) and len(planned) < len(calls)


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
        return run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))

    def test_summary_csv_has_one_row_per_method(self, tmp_path):
        report = self.small_report()
        path = tmp_path / "summary.csv"
        write_summary_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "method,mean_expected_mfp,ci95_half_width,n_anomalies,censored_count"
        assert len(lines) == 1 + len(report.per_method)

    def test_methods_are_reported_in_method_order(self, tmp_path):
        order = ["indmarg", "seqmarg", "inddo", "seqdo", "random", "optoracle"]
        assert [m.value for m in Method] == order
        dataset = make_labeled_dataset(np.random.default_rng(16), n_normal=60, n_anomaly=10)
        config = EvalConfig(top_fraction=0.5, random_repeats=2, seed=8)
        report = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
        summary = MethodSummary(2.0, 0.5, 3, 1)
        backwards = EvaluationReport(
            per_method={m: summary for m in reversed(Method)}, per_point=(), detector_mode=DetectorMode.EGMM
        )
        for written in (report, backwards):
            path = tmp_path / "summary.csv"
            write_summary_csv(written, path)
            assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == order
            assert [line.split()[0] for line in format_summary_table(written).splitlines()[1:]] == order

    def test_report_keys_must_be_methods(self):
        with pytest.raises(ValueError, match="'typo' is not a valid Method"):
            EvaluationReport(
                per_method={"typo": MethodSummary(2.0, 0.5, 3, 1)}, per_point=(), detector_mode=DetectorMode.EGMM
            )

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
        report = run_evaluation(dataset, config, egmm_fit(dataset.points, SMALL_EGMM), analyst_for(dataset, config))
        assert report.method_label(Method.IND_MARG) == "indmarg*"
        assert report.method_label(Method.RANDOM) == "random"


class TestEvalConfig:
    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            from_dict(EvalConfig, {"top_fraction": 0.5, "typo": 1})

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            EvalConfig(top_fraction=0.0)
