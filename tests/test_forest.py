import dataclasses
import gc
import warnings

import numpy as np
import pytest

from sfexplain.config import MalformedConfig, from_dict
from sfexplain.forest import (
    BaggedForest,
    ForestConfig,
    MalformedForest,
    SingleClassTrainingData,
    grow_forest,
)


def separable_1d(rng, n_per_class=60, gap=4.0):
    x = np.concatenate([rng.normal(0.0, 1.0, n_per_class), rng.normal(gap + 4.0, 1.0, n_per_class)])
    y = np.concatenate([np.zeros(n_per_class, bool), np.ones(n_per_class, bool)])
    return x.reshape(-1, 1), y


def weighted_gini(goes_left, y):
    """Size-weighted Gini of the two sides, in the grower's float operations."""
    n, n_left = float(len(y)), float(goes_left.sum())
    a_left = float(y[goes_left].sum())
    p_left = a_left / n_left
    p_right = (float(y.sum()) - a_left) / (n - n_left)
    return (n_left * (2.0 * p_left * (1.0 - p_left)) + (n - n_left) * (2.0 * p_right * (1.0 - p_right))) / n


def valid_cuts(X, y, min_leaf):
    """(feature, threshold, weighted Gini) of every cut between distinct
    values that leaves min_leaf rows on each side, thresholds ascending."""
    cuts = []
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for threshold in 0.5 * (values[:-1] + values[1:]):
            goes_left = X[:, f] < threshold
            if min_leaf <= goes_left.sum() <= len(y) - min_leaf:
                cuts.append((f, threshold, weighted_gini(goes_left, y)))
    return cuts


class TestForestConfig:
    def test_rejects_bad_tree_count(self):
        with pytest.raises(ValueError):
            ForestConfig(tree_count=0)

    def test_rejects_unknown_split_rule(self):
        # Candidate features per split follow the fixed sqrt rule; the
        # features_per_split key is gone, whatever its value.
        message = r"^unknown config keys for ForestConfig: \['features_per_split'\]$"
        for rule in ("sqrt", "log2"):
            with pytest.raises(MalformedConfig, match=message):
                from_dict(ForestConfig, {"features_per_split": rule})

    def test_dict_round_trip(self):
        config = ForestConfig(tree_count=7, max_depth=3, min_leaf=2, seed=5)
        assert from_dict(ForestConfig, dataclasses.asdict(config)) == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            from_dict(ForestConfig, {"tree_count": 5, "bogus": 1})

    @pytest.mark.parametrize("raw", [[], {"tree_count": "a"}])
    def test_malformed_section_is_a_typed_error(self, raw):
        with pytest.raises(MalformedConfig):
            from_dict(ForestConfig, raw)


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


class TestGrower:
    @pytest.mark.parametrize("data", ["normal-1d", "normal-2d", "blocks"])
    def test_every_split_is_the_first_best_valid_cut(self, data):
        # With d <= 2 every feature is a candidate at every node, so each
        # split must be the first lowest-cost cut of the rows reaching it.
        rng = np.random.default_rng(len(data))
        if data == "blocks":  # alternating runs of four: many tied costs
            X = np.arange(32.0).reshape(-1, 1)
            y = (np.arange(32) // 4) % 2 == 1
            rows = np.tile(np.arange(32), (2, 1))
        else:
            X = np.round(rng.normal(size=(60, int(data[-2]))), 1)  # rounding makes ties
            y = rng.random(60) < 0.4 + 0.3 * np.tanh(X[:, 0])
            rows = rng.integers(0, 60, size=(4, 50))
        config = ForestConfig(max_depth=5, min_leaf=3)
        forest = grow_forest(X, y, rows, config, np.random.default_rng(0))
        assert len(forest.roots) == len(rows)
        checked = 0
        for root, tree_rows in zip(forest.roots, rows):
            stack = [(int(root), tree_rows, 0)]
            while stack:
                node, reach, depth = stack.pop()
                xs, ys = X[reach], y[reach]
                n, n_anomaly = len(ys), int(ys.sum())
                assert forest.prob[node] == (n - n_anomaly + 1.0) / (n + 2.0)
                p = n_anomaly / n if n else 0.0
                gate = 2.0 * p * (1.0 - p) - 1e-12
                cuts = valid_cuts(xs, ys, config.min_leaf)
                lowest = min((c for _, _, c in cuts), default=np.inf)
                f = forest.feature[node]
                if f < 0:
                    assert (
                        depth == config.max_depth
                        or n < 2 * config.min_leaf
                        or n_anomaly in (0, n)
                        or not lowest < gate
                    )
                    continue
                checked += 1
                goes_left = xs[:, f] < forest.threshold[node]
                assert weighted_gini(goes_left, ys) == lowest < gate
                assert forest.threshold[node] == next(t for g, t, c in cuts if g == f and c == lowest)
                stack.append((int(forest.left[node]), reach[goes_left], depth + 1))
                stack.append((int(forest.right[node]), reach[~goes_left], depth + 1))
        assert checked >= 5

    def test_node_count_sums_over_trees(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(120, 3))
        y = rng.random(120) < 0.3
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=7), seed=4)
        assert len(forest.trees) == 7
        assert sum(len(t.feature) for t in forest.trees) == len(forest.feature)

    def test_depth_twelve_chain_predicts_each_leaf(self):
        # Node 2k tests x < k + 0.5 at depth k; its left child 2k + 1 is a
        # leaf, its right child 2k + 2 the next test; 23 and 24 sit at depth 12.
        size = 25
        feature = np.full(size, -1)
        threshold = np.zeros(size)
        left, right = np.arange(size), np.arange(size)
        for k in range(12):
            feature[2 * k] = 0
            threshold[2 * k] = k + 0.5
            left[2 * k], right[2 * k] = 2 * k + 1, 2 * k + 2
        prob = (np.arange(size) + 1.0) / 30.0
        forest = BaggedForest(feature, threshold, left, right, prob, n_features=1)
        X = np.arange(13.0).reshape(-1, 1)
        expected = prob[[2 * k + 1 for k in range(12)] + [24]]
        np.testing.assert_array_equal(forest.prob_normal_many(X), expected)
        assert [forest.prob_normal(x) for x in X] == expected.tolist()

    def test_batch_prediction_equals_single_predictions_exactly(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 4))
        y = rng.random(150) < 0.2 + 0.5 * (X[:, 1] > 0)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=13), seed=9)
        probe = rng.normal(size=(40, 4))
        batch = forest.prob_normal_many(probe)
        assert batch.tolist() == [forest.prob_normal(x) for x in probe]

    def test_rejects_node_arrays_that_are_not_a_forest(self):
        feature, threshold, prob = np.array([0, -1, -1]), np.zeros(3), np.full(3, 0.5)
        BaggedForest(feature, threshold, [1, 1, 2], [2, 1, 2], prob, n_features=1)
        with pytest.raises(MalformedForest):  # a child before its parent
            BaggedForest(feature, threshold, [1, 1, 2], [0, 1, 2], prob, n_features=1)
        with pytest.raises(MalformedForest):  # a leaf pointing elsewhere
            BaggedForest(feature, threshold, [1, 2, 2], [2, 1, 2], prob, n_features=1)
        with pytest.raises(MalformedForest):  # both children the same node
            BaggedForest(feature, threshold, [1, 1, 2], [1, 1, 2], prob, n_features=1)
        with pytest.raises(MalformedForest):
            BaggedForest(feature, threshold[:2], [1, 1, 2], [2, 1, 2], prob, n_features=1)
        for bad in (0.0, 1.0, 1.2):  # leaf probabilities must lie in (0, 1)
            with pytest.raises(MalformedForest, match=r"\(0, 1\)"):
                BaggedForest(feature, threshold, [1, 1, 2], [2, 1, 2], [0.5, 0.5, bad], n_features=1)


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

    def test_truncated_file_is_malformed(self, tmp_path):
        rng = np.random.default_rng(6)
        X, y = separable_1d(rng)
        path = tmp_path / "forest.npz"
        BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=1).save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["forest.npz"]  # no temporary left
        data = path.read_bytes()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for cut in (0, 10, 60, len(data) // 2, len(data) - 1):
                path.write_bytes(data[:cut])
                with pytest.raises(MalformedForest):
                    BaggedForest.load(path)
            gc.collect()
        # A truncated zip (60 bytes: a header, then nothing) must not leave
        # the file open.
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
