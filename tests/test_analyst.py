import math
import sys
import threading

import numpy as np
import pytest

import sfexplain.analyst
from conftest import make_labeled_dataset, make_single_deviant_dataset, save_five_array_forest
from sfexplain.analyst import (
    AnalystModel,
    ThresholdDistribution,
    certainty_curve,
    expected_mfp,
)
from sfexplain.config import MalformedConfig, from_dict
from sfexplain.dataset import Dataset
from sfexplain.evaluate import EvalConfig
from sfexplain.explain import Method, Sfe
from sfexplain.forest import NODE_ARRAYS, BaggedForest, ForestConfig, SingleClassTrainingData
from sfexplain.seeding import derive_seed

UNIFORM = ThresholdDistribution.uniform()


def mfp(curve, tau):
    """Single-threshold MFP of a curve, or None when it is never detected."""
    value, censored = expected_mfp(curve, ThresholdDistribution(support=((tau, 1.0),)))
    return None if censored else int(value)


def uncensored_expected_mfp(curve, dist):
    """Expected MFP of a curve, or None if any threshold goes undetected."""
    value, censored = expected_mfp(curve, dist)
    return None if censored else value


def small_analyst(seed=0, **kwargs):
    data = make_labeled_dataset(np.random.default_rng(seed))
    return AnalystModel(data, ForestConfig(tree_count=20), seed=seed, **kwargs)


class TestThresholdDistribution:
    def test_uniform_default(self):
        assert UNIFORM.support == ((0.1, 1 / 3), (0.2, 1 / 3), (0.3, 1 / 3))

    def test_rejects_tau_out_of_range(self):
        with pytest.raises(ValueError):
            ThresholdDistribution(support=((0.7, 1.0),))

    def test_rejects_probabilities_not_summing_to_one(self):
        with pytest.raises(ValueError):
            ThresholdDistribution(support=((0.1, 0.4), (0.2, 0.4)))

    @pytest.mark.parametrize(
        "pair", [["0.1", 1], [0.1, "1"], ["0.1", "1"], [True, 1], [None, 1], [0.1, math.nan], [0.1, 10**400]]
    )
    def test_values_must_be_real_numbers(self, pair):
        # float() would read "0.1" as 0.1; every other numeric config field
        # refuses a JSON string, and so does this one. A NaN probability
        # passed the sum check and made every expected MFP NaN; an integer
        # past float64's range raised a bare OverflowError.
        with pytest.raises(ValueError, match="real numbers"):
            ThresholdDistribution(support=(tuple(pair),))
        with pytest.raises(MalformedConfig, match="^malformed ThresholdDistribution: "):
            from_dict(EvalConfig, {"thresholds": {"support": [pair]}})
        assert ThresholdDistribution(support=((np.float64(0.1), 1),)).support == ((0.1, 1.0),)


class TestCache:
    def test_second_request_is_a_cache_hit(self):
        analyst = small_analyst()
        x = np.zeros(3)
        first = analyst.prob_normal(x, {0, 1})
        assert (analyst.trained_count, analyst.cache_hits) == (1, 0)
        assert analyst.prob_normal(x, {0, 1}) == first
        assert (analyst.trained_count, analyst.cache_hits) == (1, 1)

    def test_forest_trained_again_is_the_same_bit_for_bit(self):
        analyst = small_analyst()
        first = analyst.classifier_for((0,))
        again = analyst.classifier_for((0,))  # the analyst keeps no forest
        assert again is not first
        assert (analyst.trained_count, analyst.cache_hits) == (2, 0)
        for name in NODE_ARRAYS:
            assert np.array_equal(getattr(again, name), getattr(first, name))

    def test_held_rows_are_answered_by_every_forest(self):
        analyst = small_analyst()
        points = np.random.default_rng(1).normal(size=(5, 3))
        analyst.hold_rows(points)
        queries = [((2,), 4), ((0,), 1), ((0, 1, 2), 1), ((0,), 3), ((2,), 4), ((1, 2), 0)]
        queries += [((0,), 1), ((0, 1, 2), 2), ((2,), 0)]
        answers = [analyst.prob_normal(points[i], key) for key, i in queries]
        # 9 queries of 4 subsets: each subset's first query trains its forest,
        # which answers all 5 held rows, and the other 9 - 4 queries are hits.
        assert (analyst.trained_count, analyst.cache_hits) == (4, 9 - 4)
        single = small_analyst()
        assert answers == [single.prob_normal(points[i], key) for key, i in queries]

        # Holding overlapping rows again reads the rows the store holds and
        # trains only the subsets that have rows not yet answered.
        more = np.concatenate([points[3:], np.random.default_rng(2).normal(size=(2, 3))])
        analyst.hold_rows(more)
        assert analyst.prob_normal(more[0], (0,)) == answers[3]
        assert analyst.prob_normal(more[1], (0, 1, 2)) == single.prob_normal(points[4], (0, 1, 2))
        assert (analyst.trained_count, analyst.cache_hits) == (4, 5 + 2)
        assert analyst.prob_normal(more[3], (1, 2)) == single.prob_normal(more[3], (1, 2))
        assert analyst.prob_normal(more[2], (0,)) == single.prob_normal(more[2], (0,))
        assert (analyst.trained_count, analyst.cache_hits) == (6, 7)
        assert [analyst.prob_normal(x, (0,)) for x in more] == [single.prob_normal(x, (0,)) for x in more]
        assert (analyst.trained_count, analyst.cache_hits) == (6, 7 + 4)

        # A subset first asked now trains once and answers all 7 held rows.
        every = np.concatenate([points, more[2:]])
        assert [analyst.prob_normal(x, (0, 1)) for x in every] == [single.prob_normal(x, (0, 1)) for x in every]
        assert (analyst.trained_count, analyst.cache_hits) == (7, 11 + 6)

    def test_a_new_row_is_held_for_later_subsets(self):
        # A row first asked without hold_rows is held from then on: the next
        # subset's forest answers it together with the other held rows.
        analyst = small_analyst()
        x, y = np.zeros(3), np.ones(3)
        analyst.prob_normal(x, (0,))
        analyst.prob_normal(y, (0,))
        assert (analyst.trained_count, analyst.cache_hits) == (2, 0)
        analyst.prob_normal(x, (1, 2))
        assert analyst.prob_normal(y, (1, 2)) == small_analyst().prob_normal(y, (1, 2))
        assert (analyst.trained_count, analyst.cache_hits) == (3, 1)

    def test_forest_seed_derives_from_analyst_seed_and_subset(self):
        data = make_labeled_dataset(np.random.default_rng(3))
        config = ForestConfig(tree_count=5)
        analyst = AnalystModel(data, config, seed=11)
        for key in [(0,), (1, 2), (0, 1, 2)]:
            X = data.points[:, key]
            expected = BaggedForest.fit(X, data.labels, config, seed=derive_seed(11, *key))
            got = analyst.classifier_for(key)
            assert np.array_equal(got.prob_normal_many(X), expected.prob_normal_many(X))

    @pytest.mark.parametrize(
        "seed", [2.5, 2.0, "2", True, np.float64(2.0)], ids=["2.5", "2.0", "str", "bool", "numpy-float"]
    )
    def test_seed_must_be_an_integer(self, seed):
        # 2.5 silently trained with seed 2, '2' was accepted and True became 1.
        data = make_labeled_dataset(np.random.default_rng(3))
        with pytest.raises(ValueError, match="seed must be an integer"):
            AnalystModel(data, ForestConfig(tree_count=5), seed=seed)
        assert AnalystModel(data, ForestConfig(tree_count=5), seed=np.int64(2)).seed == 2

    def test_subset_order_is_canonicalized(self):
        analyst = small_analyst()
        x = np.array([1.0, -0.5, 2.0])
        assert analyst.prob_normal(x, [0, 2]) == analyst.prob_normal(x, [2, 0])
        assert (analyst.trained_count, analyst.cache_hits) == (1, 1)

    def test_concurrent_requests_train_once_per_subset(self, tmp_path):
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        errors = []
        x = np.zeros(3)

        def hammer(analyst):
            def worker():
                try:
                    for s in subsets:
                        analyst.prob_normal(x, s)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors
            assert analyst.cache_hits == 7 * len(subsets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose lost updates
        try:
            analyst = small_analyst(cache_dir=tmp_path)
            hammer(analyst)
            assert (analyst.trained_count, analyst.loaded_count) == (len(subsets), 0)

            # A second analyst on the same disk cache loads each subset once.
            reader = small_analyst(cache_dir=tmp_path)
            hammer(reader)
            assert (reader.trained_count, reader.loaded_count) == (0, len(subsets))
        finally:
            sys.setswitchinterval(interval)

    def test_rows_held_from_many_threads_train_once_per_subset(self):
        # Each thread holds its own row, then all ask every subset: a held
        # row lost to a concurrent hold_rows would train its subsets again.
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
        rows = np.random.default_rng(5).normal(size=(8, 3))
        analyst = small_analyst()
        barrier = threading.Barrier(len(rows), timeout=60)
        answers, errors = {}, []

        def worker(i):
            try:
                analyst.hold_rows(rows[i : i + 1])
                barrier.wait()
                answers[i] = [analyst.prob_normal(rows[i], s) for s in subsets]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(rows))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert (analyst.trained_count, analyst.cache_hits) == (len(subsets), (len(rows) - 1) * len(subsets))
        single = small_analyst()
        assert answers == {i: [single.prob_normal(x, s) for s in subsets] for i, x in enumerate(rows)}

    def test_single_class_training_data_rejected(self):
        rng = np.random.default_rng(0)
        data = Dataset(
            points=rng.normal(size=(30, 2)),
            labels=np.zeros(30, bool),
            feature_names=("a", "b"),
        )
        analyst = AnalystModel(data, ForestConfig(tree_count=5))
        for _ in range(2):  # a failed training caches nothing
            with pytest.raises(SingleClassTrainingData):
                analyst.classifier_for((0,))
        assert analyst.trained_count == 0

    def test_training_data_is_hashed_only_for_a_disk_cache(self, monkeypatch):
        # The hash names cache files; without a cache directory nothing reads it.
        def no_hash(*args):
            raise AssertionError("training data hashed without a cache directory")

        monkeypatch.setattr(sfexplain.analyst.hashlib, "sha256", no_hash)
        analyst = small_analyst()
        analyst.prob_normal(np.zeros(3), (0, 1))
        assert analyst.trained_count == 1

    def test_disk_cache_skips_retraining(self, tmp_path):
        first = small_analyst(cache_dir=tmp_path)
        p1 = first.prob_normal(np.zeros(3), (0, 1))
        assert first.trained_count == 1

        second = small_analyst(cache_dir=tmp_path)
        p2 = second.prob_normal(np.zeros(3), (0, 1))
        assert second.trained_count == 0
        assert second.loaded_count == 1
        assert p1 == p2

    def test_unusable_cache_file_is_retrained_and_overwritten(self, tmp_path, caplog):
        first = small_analyst(cache_dir=tmp_path)
        expected = first.prob_normal(np.zeros(3), (0, 1))
        (path,) = tmp_path.iterdir()
        assert path.suffix == ".npz"
        good = path.read_bytes()
        other_width = tmp_path / "other.npz"
        small_analyst().classifier_for((0,)).save(other_width)
        for broken in (good[: len(good) // 2], b"", other_width.read_bytes()):
            path.write_bytes(broken)
            analyst = small_analyst(cache_dir=tmp_path)
            with caplog.at_level("WARNING", logger="sfexplain.analyst"):
                assert analyst.prob_normal(np.zeros(3), (0, 1)) == expected
            assert (analyst.trained_count, analyst.loaded_count) == (1, 0)
            assert "retraining" in caplog.text
            assert path.read_bytes() == good
            caplog.clear()

    def test_five_array_cache_file_is_retrained_once(self, tmp_path, caplog):
        # A cache file written in the earlier five-array layout is logged,
        # retrained and overwritten; the next analyst loads the new file.
        first = small_analyst(cache_dir=tmp_path)
        probe = np.stack([np.zeros(3), np.ones(3)])
        expected = first.prob_normal(probe[0], (0, 1))
        (path,) = tmp_path.iterdir()
        good = path.read_bytes()
        save_five_array_forest(first.classifier_for((0, 1)), path)
        analyst = small_analyst(cache_dir=tmp_path)
        analyst.hold_rows(probe)
        with caplog.at_level("WARNING", logger="sfexplain.analyst"):
            assert analyst.prob_normal(probe[0], (0, 1)) == expected
            assert analyst.prob_normal(probe[1], (0, 1)) == first.prob_normal(probe[1], (0, 1))
        assert (analyst.trained_count, analyst.loaded_count) == (1, 0)
        (record,) = caplog.records
        assert record.levelname == "WARNING" and "retraining" in record.getMessage()
        assert path.read_bytes() == good
        reader = small_analyst(cache_dir=tmp_path)
        assert reader.prob_normal(np.zeros(3), (0, 1)) == expected
        assert (reader.trained_count, reader.loaded_count) == (0, 1)

    def test_two_analysts_share_one_cache_directory(self, tmp_path):
        subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        analysts = [small_analyst(cache_dir=tmp_path) for _ in range(2)]
        errors = []

        def worker(analyst, order):
            try:
                for s in order:
                    analyst.classifier_for(s)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(a, subsets[::step]))
            for a in analysts
            for step in (1, -1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".npz"] * len(subsets)

        reader = small_analyst(cache_dir=tmp_path)
        probe = np.random.default_rng(1).normal(size=(5, 3))
        for analyst in (reader, analysts[0]):
            analyst.hold_rows(probe)
        for s in subsets:
            for x in probe:
                assert reader.prob_normal(x, s) == analysts[0].prob_normal(x, s)
        assert (reader.trained_count, reader.loaded_count) == (0, len(subsets))

        # Different training data in the same directory keys its own files.
        other = small_analyst(seed=1, cache_dir=tmp_path)
        other.classifier_for((0, 1))
        assert (other.trained_count, other.loaded_count) == (1, 0)


class TestProbNormal:
    def test_stump_smoothing_arithmetic(self):
        # A single perfect stump: the anomaly-side leaf holds 0 normals and
        # 10 anomalies, so the smoothed probability is (0+1)/(10+2).
        points = np.zeros((20, 2))
        points[10:, 1] = 1.0
        labels = np.concatenate([np.zeros(10, bool), np.ones(10, bool)])
        data = Dataset(points=points, labels=labels, feature_names=("a", "b"))
        analyst = AnalystModel(data, ForestConfig(tree_count=1, max_depth=1, min_leaf=1), seed=0)
        assert analyst.prob_normal(np.array([9.9, 1.0]), (1,)) == pytest.approx(1.0 / 12.0)

    def test_deep_normal_region_scores_high(self):
        analyst = small_analyst(seed=3)
        assert analyst.prob_normal(np.zeros(3), (0, 1, 2)) >= 0.9

    def test_anomaly_region_scores_low(self):
        analyst = small_analyst(seed=3)
        assert analyst.prob_normal(np.full(3, 4.0), (0, 1, 2)) <= 0.1

    def test_repeated_calls_identical(self):
        analyst = small_analyst(seed=4)
        x = np.array([1.0, -0.5, 2.0])
        assert analyst.prob_normal(x, (0, 2)) == analyst.prob_normal(x, (0, 2))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            small_analyst().prob_normal(np.zeros(3), ())

    @pytest.mark.parametrize(
        "shape, subset", [((4,), (0, 1)), ((2,), (0,)), ((2,), (2,)), ((1, 3), (0,))], ids=str
    )
    def test_point_of_the_wrong_width_is_rejected(self, shape, subset):
        # A 4-wide point was answered from its first features, and subset
        # (2,) of a 2-wide point raised a bare IndexError.
        analyst = small_analyst()
        with pytest.raises(ValueError, match="analyst's 3 features"):
            analyst.prob_normal(np.zeros(shape), subset)
        assert analyst.trained_count == 0

    @pytest.mark.parametrize("shape", [(5, 4), (5, 2), (3,), (2, 5, 3)], ids=str)
    def test_table_rows_of_the_wrong_width_are_rejected(self, shape):
        analyst = small_analyst()
        with pytest.raises(ValueError, match="analyst's 3 features"):
            analyst.hold_rows(np.zeros(shape))
        assert analyst.trained_count == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_values_are_rejected(self, bad, column):
        # [nan, 0, 0] on (0,) was answered 0.33 and [inf, 0, 0] 0.57. A held
        # row serves every later subset, so a value off the subset counts too.
        analyst = small_analyst()
        x = np.zeros(3)
        x[column] = bad
        with pytest.raises(ValueError, match="finite"):
            analyst.prob_normal(x, (0,))
        with pytest.raises(ValueError, match="finite"):
            analyst.hold_rows(np.stack([np.ones(3), x]))
        assert (analyst.trained_count, analyst.cache_hits) == (0, 0)
        # The rejected rows leave the analyst answering finite rows as before.
        assert analyst.prob_normal(np.ones(3), (0,)) == small_analyst().prob_normal(np.ones(3), (0,))
        assert analyst.trained_count == 1


class TestCertaintyCurve:
    def test_single_step_matches_prob(self):
        analyst = small_analyst(seed=5)
        x = np.full(3, 4.0)
        sfe = Sfe(order=(2, 0, 1), step_scores=(0.0, 0.0, 0.0), method=Method.RANDOM)
        curve = certainty_curve(analyst, x, sfe)
        assert len(curve) == 3
        assert curve[0] == analyst.prob_normal(x, (2,))

    def test_values_in_unit_interval(self):
        analyst = small_analyst(seed=6)
        x = np.array([2.0, -1.0, 0.5])
        sfe = Sfe(order=(1, 2, 0), step_scores=(0.0,) * 3, method=Method.RANDOM)
        curve = certainty_curve(analyst, x, sfe)
        assert type(curve) is tuple
        assert curve == tuple(analyst.prob_normal(x, sfe.order[: i + 1]) for i in range(3))
        assert all(0.0 < v < 1.0 for v in curve)

    def test_anomaly_curve_decreases_toward_zero(self):
        # With a single deviant feature revealed first, certainty collapses.
        data = make_single_deviant_dataset(np.random.default_rng(7))
        analyst = AnalystModel(data, ForestConfig(tree_count=40), seed=7)
        x = data.points[data.labels.argmax()]
        sfe = Sfe(order=(0, 1, 2, 3, 4), step_scores=(0.0,) * 5, method=Method.RANDOM)
        curve = certainty_curve(analyst, x, sfe)
        assert curve[0] <= 0.2
        assert curve[-1] <= 0.2


class TestMfp:
    def test_first_crossing(self):
        curve = (0.6, 0.25, 0.05)
        assert mfp(curve, 0.3) == 2

    def test_lower_threshold_detects_later(self):
        curve = (0.6, 0.25, 0.05)
        assert mfp(curve, 0.1) == 3

    def test_not_detected(self):
        assert mfp((0.6, 0.55), 0.3) is None

    def test_threshold_is_inclusive(self):
        assert mfp((0.3,), 0.3) == 1

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            curve = tuple(rng.random(6))
            taus = sorted(rng.uniform(0.0, 0.5, size=4))
            results = [mfp(curve, t) for t in taus]
            as_inf = [np.inf if r is None else r for r in results]
            assert all(a >= b for a, b in zip(as_inf, as_inf[1:]))

    def test_tau_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            mfp((0.5,), 0.6)


class TestExpectedMfp:
    def test_uniform_average(self):
        curve = (0.6, 0.25, 0.05)
        assert uncensored_expected_mfp(curve, UNIFORM) == pytest.approx((3 + 3 + 2) / 3)

    def test_immediate_detection(self):
        assert uncensored_expected_mfp((0.05,), UNIFORM) == pytest.approx(1.0)

    def test_degenerate_distribution(self):
        curve = (0.6, 0.25, 0.05)
        point_mass = ThresholdDistribution(support=((0.3, 1.0),))
        assert uncensored_expected_mfp(curve, point_mass) == 2

    def test_any_undetected_threshold_gives_none(self):
        curve = (0.6, 0.25, 0.15)
        assert uncensored_expected_mfp(curve, UNIFORM) is None

    def test_lies_between_per_tau_extremes(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            curve = tuple(rng.random(5) * 0.8)
            per_tau = [mfp(curve, t) for t, _ in UNIFORM.support]
            if any(m is None for m in per_tau):
                continue
            value = uncensored_expected_mfp(curve, UNIFORM)
            assert min(per_tau) <= value <= max(per_tau)


class TestCensoredExpectedMfp:
    def test_censors_at_curve_length_plus_one(self):
        curve = (0.6, 0.25, 0.15)
        value, censored = expected_mfp(curve, UNIFORM)
        assert censored
        assert value == pytest.approx((4 + 3 + 2) / 3)

    def test_uncensored_matches_expected_mfp(self):
        curve = (0.6, 0.25, 0.05)
        value, censored = expected_mfp(curve, UNIFORM)
        assert not censored
        assert value == sum(p * mfp(curve, t) for t, p in UNIFORM.support)
