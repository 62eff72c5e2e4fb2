import numpy as np
import pytest

from sfexplain.forest import BaggedForest, ForestConfig, SingleClassTrainingData


def separable_1d(rng, n_per_class=60, gap=4.0):
    x = np.concatenate([rng.normal(0.0, 1.0, n_per_class), rng.normal(gap + 4.0, 1.0, n_per_class)])
    y = np.concatenate([np.zeros(n_per_class, bool), np.ones(n_per_class, bool)])
    return x.reshape(-1, 1), y


class TestForestConfig:
    def test_rejects_bad_tree_count(self):
        with pytest.raises(ValueError):
            ForestConfig(tree_count=0)

    def test_rejects_unknown_split_rule(self):
        with pytest.raises(ValueError):
            ForestConfig(features_per_split="log2")

    def test_dict_round_trip(self):
        config = ForestConfig(tree_count=7, max_depth=3, min_leaf=2, seed=5)
        assert ForestConfig.from_dict(config.to_dict()) == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            ForestConfig.from_dict({"tree_count": 5, "bogus": 1})


class TestFit:
    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(SingleClassTrainingData):
            BaggedForest.fit(X, np.zeros(10, bool), ForestConfig())

    def test_perfect_stump_probability(self):
        # One depth-1 tree on perfectly separated data: the anomaly-side leaf
        # holds 0 normals and 10 anomalies, so P(normal) = (0+1)/(10+2).
        X = np.concatenate([np.zeros(10), np.ones(10)]).reshape(-1, 1)
        y = np.concatenate([np.zeros(10, bool), np.ones(10, bool)])
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=1, max_depth=1, min_leaf=1), seed=0)
        assert forest.prob_normal(np.array([1.0])) == pytest.approx(1.0 / 12.0)
        assert forest.prob_normal(np.array([0.0])) == pytest.approx(11.0 / 12.0)

    def test_held_out_accuracy_on_separable_data(self):
        rng = np.random.default_rng(1)
        X, y = separable_1d(rng)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=50, min_leaf=2), seed=2)
        X_test, y_test = separable_1d(rng)
        predicted_anomaly = forest.prob_normal_many(X_test) < 0.5
        assert np.mean(predicted_anomaly == y_test) >= 0.95

    def test_probabilities_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        X, y = separable_1d(rng)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=20), seed=3)
        for v in (-5.0, 0.0, 4.0, 20.0):
            p = forest.prob_normal(np.array([v]))
            assert 0.0 < p < 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        y = rng.random(80) < 0.4
        y[0], y[1] = False, True
        f1 = BaggedForest.fit(X, y, ForestConfig(tree_count=15), seed=7)
        f2 = BaggedForest.fit(X, y, ForestConfig(tree_count=15), seed=7)
        probe = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(f1.prob_normal_many(probe), f2.prob_normal_many(probe))

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 3))
        y = np.concatenate([np.zeros(70, bool), np.ones(30, bool)])
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=25), seed=11)
        perm = rng.permutation(100)
        shuffled = BaggedForest.fit(X[perm], y[perm], ForestConfig(tree_count=25), seed=11)
        probe = rng.normal(size=(25, 3))
        np.testing.assert_array_equal(
            forest.prob_normal_many(probe), shuffled.prob_normal_many(probe)
        )


class TestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        X, y = separable_1d(rng)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=10), seed=1)
        path = tmp_path / "forest.json"
        forest.save(path)
        loaded = BaggedForest.load(path)
        probe = rng.normal(2.0, 3.0, size=(30, 1))
        np.testing.assert_array_equal(
            forest.prob_normal_many(probe), loaded.prob_normal_many(probe)
        )
