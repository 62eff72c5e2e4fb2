import dataclasses
import gc
import hashlib
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import sfexplain.forest
from conftest import save_five_array_forest
from sfexplain.config import MalformedConfig, from_dict
from sfexplain.forest import (
    NODE_ARRAYS,
    BaggedForest,
    ForestConfig,
    MalformedForest,
    SingleClassTrainingData,
    canonical_order,
    grow_forest,
)
from sfexplain.seeding import derive_seed


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


# A hundred trees, six deep: one depth holds up to 248 split parents.
WIDE_CONFIG = ForestConfig(tree_count=100, max_depth=6, min_leaf=2)


def pinned_data(data):
    """Training rows and labels of test_fitted_forest_is_pinned's cases."""
    rng = np.random.default_rng(30)
    if data == "bench":  # the benchmark pool's size: 1500 rows of 8 features, 75 anomalies
        X = rng.normal(size=(1500, 8))
        y = np.arange(1500) % 20 == 0
        X[y, :2] += 1.5
        return X, y
    X = rng.normal(size=(120, 3))
    if data == "tied":  # one decimal: many equal values and tied costs
        X = np.round(X, 1)
    return X, rng.random(120) < (0.3 if data in ("noisy", "wide") else 0.2 + 0.5 * (X[:, 0] > 0))


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
            BaggedForest.fit(X, np.zeros(10, bool), ForestConfig(), seed=0)

    @pytest.mark.parametrize("shape", [(10,), (10, 2, 1), (10, 0)], ids=["1-d", "3-d", "no-columns"])
    def test_rows_must_form_a_matrix(self, shape):
        y = np.arange(10) % 2 == 1
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            BaggedForest.fit(np.zeros(shape), y, ForestConfig(), seed=0)

    def test_rows_must_be_finite(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3))
        X[3, 1], X[7, 2] = np.nan, np.inf
        with pytest.raises(ValueError, match="training rows must be finite"):
            BaggedForest.fit(X, np.arange(40) % 4 == 0, ForestConfig(tree_count=3), seed=0)

    @pytest.mark.parametrize(
        "seed", [2.5, 2.0, "2", True, np.float64(2.0)], ids=["2.5", "2.0", "str", "bool", "numpy-float"]
    )
    def test_seed_must_be_an_integer(self, seed):
        # 2.5 silently trained with seed 2, '2' was accepted and True became 1.
        X, y = separable_1d(np.random.default_rng(0))
        with pytest.raises(ValueError, match="seed must be an integer"):
            BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=seed)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=np.int64(2))
        np.testing.assert_array_equal(forest.value, BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=2).value)

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

    def test_canonical_order_is_a_lexsort_of_every_column_then_the_label(self):
        # A stable sort of column 0 plus a lexsort of the rows tied on it must
        # give the full lexsort: rounded values tie, constant columns tie
        # everywhere, and -0.0 equals 0.0.
        rng = np.random.default_rng(8)
        for _ in range(400):
            rows, d = int(rng.integers(1, 60)), int(rng.integers(1, 6))
            X = np.round(rng.normal(size=(rows, d)), int(rng.integers(0, 2)))
            X[:, rng.random(d) < 0.3] = rng.choice([0.0, 1.5])
            X[(X == 0.0) & (rng.random((rows, d)) < 0.5)] = -0.0
            y = rng.random(rows) < 0.3
            expected = np.lexsort((y,) + tuple(X[:, c] for c in range(d - 1, -1, -1)))
            np.testing.assert_array_equal(canonical_order(X, y), expected)


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
                p = n_anomaly / n if n else 0.0
                gate = 2.0 * p * (1.0 - p) - 1e-12
                cuts = valid_cuts(xs, ys, config.min_leaf)
                lowest = min((c for _, _, c in cuts), default=np.inf)
                f = forest.feature[node]
                if f < 0:
                    assert forest.value[node] == (n - n_anomaly + 1.0) / (n + 2.0)
                    assert (
                        depth == config.max_depth
                        or n < 2 * config.min_leaf
                        or n_anomaly in (0, n)
                        or not lowest < gate
                    )
                    continue
                checked += 1
                goes_left = xs[:, f] < forest.value[node]
                assert weighted_gini(goes_left, ys) == lowest < gate
                assert forest.value[node] == next(t for g, t, c in cuts if g == f and c == lowest)
                stack.append((int(forest.left[node]), reach[goes_left], depth + 1))
                stack.append((int(forest.left[node]) + 1, reach[~goes_left], depth + 1))
        assert checked >= 5

    @pytest.mark.parametrize("data", ["random", "tied", "adjacent-floats", "near-float-max"])
    def test_every_split_sends_training_rows_both_ways(self, data):
        # A split scored as the best cut must move rows: routed down every
        # tree, the training rows reach both children of each internal node
        # they reach.
        rng = np.random.default_rng(31)
        if data in ("adjacent-floats", "near-float-max"):
            # No float lies between 1 and its successor; 1e308 + 1.5e308 overflows.
            pair = [1.0, np.nextafter(1.0, 2.0)] if data == "adjacent-floats" else [1e308, 1.5e308]
            X = np.repeat(np.array(pair)[:, None], 10, axis=0)
            y = np.repeat([False, True], 10)
            config = ForestConfig(tree_count=1, max_depth=3, min_leaf=1)
        else:
            X = rng.normal(size=(150, 3))
            if data == "tied":  # whole numbers: few distinct values per feature
                X = np.round(X)
            y = rng.random(150) < 0.2 + 0.5 * (X[:, 0] > 0)
            config = ForestConfig(tree_count=8, max_depth=6, min_leaf=2)
        forest = BaggedForest.fit(X, y, config, seed=3)
        reached = np.zeros(len(forest.feature), dtype=bool)
        for x in X:
            for node in forest.roots:
                reached[node] = True
                while forest.feature[node] >= 0:
                    node = forest.left[node] + (not x[forest.feature[node]] < forest.value[node])
                    reached[node] = True
        left = forest.left[reached & (forest.feature >= 0)]
        assert len(left)
        assert reached[left].all() and reached[left + 1].all()

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
        value = (np.arange(size) + 1.0) / 30.0
        left = np.arange(size)
        for k in range(12):
            feature[2 * k] = 0
            value[2 * k] = k + 0.5
            left[2 * k] = 2 * k + 1
        forest = BaggedForest(feature, value, left, n_features=1)
        X = np.arange(13.0).reshape(-1, 1)
        expected = value[[2 * k + 1 for k in range(12)] + [24]]
        np.testing.assert_array_equal(forest.prob_normal_many(X), expected)
        assert [forest.prob_normal(x) for x in X] == expected.tolist()

    def test_batch_prediction_equals_single_predictions_exactly(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 4))
        y = rng.random(150) < 0.2 + 0.5 * (X[:, 1] > 0)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=13), seed=9)
        probe = rng.normal(size=(40, 4))
        batch = forest.prob_normal_many(probe)
        assert batch.tolist() == [forest.prob_normal(x) for x in probe]
        # In chunks of fewer cells than 40 rows times the forest's nodes.
        monkeypatch.setattr(sfexplain.forest, "PREDICT_CELLS", 1000)
        assert len(probe) * len(forest.feature) > 2 * 1000
        assert forest.prob_normal_many(probe).tolist() == batch.tolist()

    def test_rejects_node_arrays_that_are_not_a_forest(self):
        feature, value = np.array([0, -1, -1]), np.full(3, 0.5)
        BaggedForest(feature, value, [1, 1, 2], n_features=1)
        with pytest.raises(MalformedForest):  # a child before its parent
            BaggedForest([-1, 0, -1], value, [0, 0, 2], n_features=1)
        with pytest.raises(MalformedForest):  # a leaf pointing elsewhere
            BaggedForest(feature, value, [1, 2, 2], n_features=1)
        with pytest.raises(MalformedForest):  # the right child past the end
            BaggedForest(feature, value, [2, 1, 2], n_features=1)
        with pytest.raises(MalformedForest, match="more than one parent"):
            BaggedForest([0, 0, -1, -1], np.full(4, 0.5), [1, 2, 2, 3], n_features=1)
        with pytest.raises(MalformedForest):
            BaggedForest(feature, value[:2], [1, 1, 2], n_features=1)
        with pytest.raises(MalformedForest):  # a feature the rows do not have
            BaggedForest([1, -1, -1], value, [1, 1, 2], n_features=1)
        for bad in (0.0, 1.0, 1.2):  # leaf probabilities must lie in (0, 1)
            with pytest.raises(MalformedForest, match=r"\(0, 1\)"):
                BaggedForest(feature, [0.5, 0.5, bad], [1, 1, 2], n_features=1)
        # An internal node's value is its threshold, which may lie anywhere.
        BaggedForest(feature, [7.5, 0.5, 0.5], [1, 1, 2], n_features=1)

    # Each of these once built a forest that predicted: a float feature was
    # truncated, a large child index wrapped in the int32 cast, a bool
    # feature passed as 0, and a NaN threshold sent every row right.
    @pytest.mark.parametrize(
        "feature, value, left, n_features, message",
        [
            ([0.9, -1.0, -1.0], [0.0, 0.5, 0.5], [1, 1, 2], 1, "feature must be an integer array"),
            ([False, True, True], [0.0, 0.5, 0.5], [1, 1, 2], 1, "feature must be an integer array"),
            ([0, -1, -1], [0.0, 0.5, 0.5], [1.0, 1.0, 2.0], 1, "left must be an integer array"),
            ([0, -1, -1], [0.0, 0.5, 0.5], [2**32 + 1, 1, 2], 1, "left holds values outside int32"),
            ([0, -1, -1], [np.nan, 0.5, 0.5], [1, 1, 2], 1, "must not be NaN"),
            ([0, -1, -1], [0.0, 0.5, 0.5], [1, 1, 2], 1.0, "n_features must be an integer"),
            ([0, -1, -1], [0.0, 0.5, 0.5], [1, 1, 2], True, "n_features must be an integer"),
            ([0, -1, -1], [0.0, 0.5, 0.5], [1, 1, 2], np.array([1]), "n_features must be an integer"),
        ],
        ids=[
            "float-feature", "bool-feature", "float-left", "left-wraps-in-int32", "nan-threshold",
            "float-n-features", "bool-n-features", "array-n-features",
        ],
    )
    def test_rejects_mistyped_node_arrays(self, feature, value, left, n_features, message):
        with pytest.raises(MalformedForest, match=message):
            BaggedForest(feature, value, left, n_features=n_features)

    def test_predictions_match_the_five_array_layout(self):
        # Recorded from the five-array layout (separate threshold, right
        # child and per-node probability); the rows with NaN go right.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(150, 3))
        y = rng.random(150) < 0.25 + 0.5 * (X[:, 0] > 0.5)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=9, max_depth=6, min_leaf=3), seed=21)
        probe = np.array(
            [
                [-1.0, -1.62, 0.47],
                [1.2, -0.77, 0.36],
                [0.79, 0.89, -0.46],
                [0.59, -0.09, -0.97],
                [np.nan, 0.35, -0.96],
                [np.nan, np.nan, np.nan],
            ]
        )
        assert len(forest.feature) == 285
        assert [v.hex() for v in forest.prob_normal_many(probe).tolist()] == [
            "0x1.1e96ccfb08942p-1",
            "0x1.f1b10b8cd7d54p-3",
            "0x1.7266eba365b22p-3",
            "0x1.86705e50115f4p-2",
            "0x1.600f5c481b565p-1",
            "0x1.f754caa1ff755p-2",
        ]

    @pytest.mark.parametrize(
        "data, config, sha256",
        [
            (
                "tied",
                ForestConfig(tree_count=6, max_depth=8, min_leaf=3),
                "d6f4327b02d4d79352a6fea8d75e1d0ecef08b08c112d03d67ceb2f6c6df99b5",
            ),
            (
                "normal",
                ForestConfig(tree_count=5, min_leaf=1),
                "06731b8aad870cc26f9e1141b761e39d8a3500067fea65f187ab098c636eaeca",
            ),
            (
                "noisy",
                ForestConfig(tree_count=4, max_depth=3, min_leaf=2),
                "f24eeebb67726b1e245ef828b90cac6e0a8207ca67233143cbb0c6dfc66b489f",
            ),
            (
                "bench",
                ForestConfig(tree_count=10),
                "a84fd2a1d75391ca1d209d4747eb919416cf150535ce68b678e16babe90014e6",
            ),
            (
                "wide",
                WIDE_CONFIG,
                "092ae1c0b5be3ae9644d897c8d5a9ae13000f30dfbda9e4c67b24c53e8759448",
            ),
        ],
        ids=["tied-values", "min-leaf-1", "max-depth", "bench-size", "16-bit-children"],
    )
    def test_fitted_forest_is_pinned(self, data, config, sha256):
        # The node arrays, byte for byte: a change to the split search or the
        # routing that alters any split, threshold or leaf value shows here.
        forest = BaggedForest.fit(*pinned_data(data), config, seed=17)
        depth = np.zeros(len(forest.feature), dtype=int)
        for node in np.flatnonzero(forest.feature >= 0):  # children follow parents
            depth[forest.left[node] : forest.left[node] + 2] = depth[node] + 1
        assert (depth.max() == config.max_depth) == (data in ("noisy", "wide"))
        if data == "wide":  # over 128 split parents at a depth: child numbers need 16 bits
            assert np.bincount(depth[forest.feature >= 0]).max() > 128
        digest = hashlib.sha256(b"".join(getattr(forest, name).tobytes() for name in NODE_ARRAYS))
        assert digest.hexdigest() == sha256

    def test_every_subset_forest_is_pinned(self):
        # The analyst fits one forest per feature subset. One digest over the
        # node arrays of all 255 subset forests of the bench-size data, in
        # combinations order, covers d = 1..8 and 1 to 3 candidates per split.
        X, y = pinned_data("bench")
        digest = hashlib.sha256()
        for size in range(1, 9):
            for subset in itertools.combinations(range(8), size):
                forest = BaggedForest.fit(
                    X[:, list(subset)], y, ForestConfig(tree_count=10), seed=derive_seed(17, *subset)
                )
                for name in NODE_ARRAYS:
                    digest.update(getattr(forest, name).tobytes())
        assert digest.hexdigest() == "aca7ad4535628d77c98541932daa01003fb19ad12ca40b14bc54699fbebe78dd"

    def test_leaves_hold_the_smoothed_share_of_their_samples(self, monkeypatch):
        # The grower carries each child's size and anomaly count out of the
        # split search. Routed down its tree by the thresholds, every training
        # sample must reach a leaf whose value is (normal + 1) / (total + 2)
        # of the samples that reach it, and every leaf must be reached.
        grown = []

        def recording_grow_forest(X, y, rows, config, rng):
            grown.append((X, y, rows))
            return grow_forest(X, y, rows, config, rng)

        monkeypatch.setattr(sfexplain.forest, "grow_forest", recording_grow_forest)
        forest = BaggedForest.fit(*pinned_data("wide"), WIDE_CONFIG, seed=17)
        ((X, y, rows),) = grown
        bounds = [*forest.roots.tolist(), len(forest.feature)]
        for root, end, tree_rows in zip(bounds[:-1], bounds[1:], rows):
            xs, is_normal = X[tree_rows], ~y[tree_rows]
            node = np.full(len(tree_rows), root)
            for _ in range(WIDE_CONFIG.max_depth):
                feature = forest.feature[node]
                goes_right = ~(xs[np.arange(len(xs)), np.maximum(feature, 0)] < forest.value[node])
                node = np.where(feature >= 0, forest.left[node] + goes_right, node)
            leaves = np.flatnonzero(forest.feature[root:end] < 0) + root
            total = np.bincount(node, minlength=end)[leaves]
            normal = np.bincount(node, weights=is_normal, minlength=end)[leaves]
            assert (total > 0).all()
            assert forest.value[leaves].tolist() == ((normal + 1.0) / (total + 2.0)).tolist()

    def test_a_default_fit_stays_within_its_memory_bound(self):
        # tracemalloc sees numpy's buffers. On the benchmark pool's size, a
        # 100-tree fit's peak was 10.3 MB while every candidate's cuts had
        # their own temporaries, and is 4.1 MB in the in-place cost table
        # with int32 sample ids and 8- or 16-bit child numbers.
        X, y = pinned_data("bench")
        BaggedForest.fit(X, y, ForestConfig(), seed=17)  # first calls may cache
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            BaggedForest.fit(X, y, ForestConfig(), seed=17)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 6e6

    def test_a_bench_size_fit_stays_within_its_memory_bound(self):
        # The benchmark's 10-tree fit on the same data: its traced peak was
        # 0.46 MB with every buffer of the split search freed once used.
        X, y = pinned_data("bench")
        config = ForestConfig(tree_count=10)
        BaggedForest.fit(X, y, config, seed=17)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            BaggedForest.fit(X, y, config, seed=17)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.55e6


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

    def test_five_array_file_is_malformed(self, tmp_path):
        # Files in the earlier layout carry no value array; they are not read.
        rng = np.random.default_rng(7)
        X, y = separable_1d(rng)
        path = tmp_path / "forest.npz"
        save_five_array_forest(BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=1), path)
        with pytest.raises(MalformedForest, match="not a forest file"):
            BaggedForest.load(path)

    @pytest.mark.parametrize("field", ["feature", "left", "value", "n_features"])
    def test_wrongly_typed_array_in_file_is_malformed(self, tmp_path, field):
        rng = np.random.default_rng(8)
        X, y = separable_1d(rng)
        forest = BaggedForest.fit(X, y, ForestConfig(tree_count=3), seed=1)
        arrays = {"n_features": forest.n_features, "feature": forest.feature, "value": forest.value, "left": forest.left}
        arrays[field] = np.full_like(arrays[field], np.nan, dtype=np.float64)
        path = tmp_path / "forest.npz"
        np.savez(path, **arrays)
        with pytest.raises(MalformedForest):
            BaggedForest.load(path)

    def test_string_values_in_file_are_malformed(self, tmp_path):
        # A float64 cast parses these strings; the forest would then predict
        # [0.25, 0.75] for rows [-1.0] and [1.0].
        path = tmp_path / "forest.npz"
        np.savez(
            path,
            n_features=1,
            feature=np.array([0, -1, -1]),
            value=np.array(["0.0", "0.25", "0.75"]),
            left=np.array([1, 1, 2]),
        )
        with pytest.raises(MalformedForest, match="value must be a float array"):
            BaggedForest.load(path)
