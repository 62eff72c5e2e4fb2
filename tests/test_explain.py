import math

import numpy as np
import pytest

from conftest import ConstantOracle, CountingOracle, GaussianOracle, TransformedOracle, make_labeled_dataset
from sfexplain.analyst import AnalystModel
from sfexplain.density import (
    EgmmConfig,
    GaussianComponent,
    GmmModel,
    egmm_fit,
    egmm_log_marginal,
    gmm_log_marginal,
    identity_egmm,
)
from sfexplain.explain import (
    Method,
    Sfe,
    explain_ind_do,
    explain_ind_marg,
    explain_random,
    explain_seq_do,
    explain_seq_marg,
)
from sfexplain.forest import ForestConfig


def std_normal_oracle(n):
    return GaussianOracle(np.zeros(n), np.eye(n))


def phi(v):
    return math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)


def fitted_egmm_oracle(seed, n, n_points=200):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_points, n)) * rng.uniform(0.5, 2.0, size=n)
    config = EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=seed)
    return egmm_fit(X, config), rng


ALL_EXPLAINERS = [explain_ind_marg, explain_seq_marg, explain_ind_do, explain_seq_do]


class TestSfe:
    def test_rejects_duplicate_order(self):
        with pytest.raises(ValueError):
            Sfe(order=(0, 0), step_scores=(1.0, 2.0), method=Method.RANDOM)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Sfe(order=(0, 1), step_scores=(1.0,), method=Method.RANDOM)

    def test_csv_row(self):
        sfe = Sfe(order=(2, 0), step_scores=(-1.5, -2.0), method=Method.SEQ_MARG)
        assert sfe.csv_row(7) == ["7", "seqmarg", "2;0", "-1.5;-2.0"]


class TestIndMarg:
    def test_more_extreme_feature_first(self):
        sfe = explain_ind_marg(std_normal_oracle(2), np.array([0.0, 5.0]))
        assert sfe.order == (1, 0)
        assert sfe.step_scores[0] == pytest.approx(math.log(phi(5.0)), rel=1e-12)

    def test_all_equal_marginals_tie_by_index(self):
        sfe = explain_ind_marg(ConstantOracle(), np.zeros(5), k=3)
        assert sfe.order == (0, 1, 2)

    def test_order_matches_resorted_queries(self):
        model, rng = fitted_egmm_oracle(seed=3, n=4)
        x = rng.normal(scale=2.0, size=4)
        counter = CountingOracle(model)
        sfe = explain_ind_marg(counter, x)
        # Oracle: redo the same singleton queries and sort them.
        values = [model.log_marginal(x, (j,)) for j in range(4)]
        expected = tuple(sorted(range(4), key=lambda j: (values[j], j)))
        assert sfe.order == expected

    def test_exactly_n_queries(self):
        counter = CountingOracle(std_normal_oracle(6))
        explain_ind_marg(counter, np.zeros(6), k=2)
        assert len(counter.calls) == 6
        assert all(len(c) == 1 for c in counter.calls)


class TestSeqMarg:
    def test_first_pick_matches_ind_marg(self):
        for seed in range(4):
            model, rng = fitted_egmm_oracle(seed=seed, n=5)
            x = rng.normal(scale=2.0, size=5)
            first_seq = explain_seq_marg(model, x, k=1).order[0]
            first_ind = explain_ind_marg(model, x, k=1).order[0]
            assert first_seq == first_ind

    def test_each_step_beats_alternatives(self):
        model, rng = fitted_egmm_oracle(seed=9, n=5)
        x = rng.normal(scale=2.0, size=5)
        sfe = explain_seq_marg(model, x)
        chosen = []
        for step, (e, score) in enumerate(zip(sfe.order, sfe.step_scores)):
            # Brute force over every remaining candidate at this step.
            remaining = [j for j in range(5) if j not in chosen]
            for j in remaining:
                alt = model.log_marginal(x, (*chosen, j))
                assert score <= alt + 1e-12
            chosen.append(e)

    def test_final_score_is_full_joint_either_way(self):
        cov = np.array([[1.0, 0.9], [0.9, 1.0]])
        oracle = GaussianOracle(np.zeros(2), cov)
        x = np.array([2.0, 2.0])
        sfe = explain_seq_marg(oracle, x, k=2)
        assert sfe.step_scores[1] == pytest.approx(oracle.log_marginal(x, (0, 1)), rel=1e-12)

    def test_query_count(self):
        n, k = 6, 4
        counter = CountingOracle(std_normal_oracle(n))
        explain_seq_marg(counter, np.arange(n, dtype=float), k=k)
        assert len(counter.calls) == sum(n - i + 1 for i in range(1, k + 1))

    def test_matches_ind_marg_on_factorized_density(self):
        rng = np.random.default_rng(15)
        oracle = GaussianOracle(rng.normal(size=4), np.diag(rng.uniform(0.5, 2.0, size=4)))
        for _ in range(5):
            x = rng.normal(scale=3.0, size=4)
            assert explain_seq_marg(oracle, x).order == explain_ind_marg(oracle, x).order


class TestIndDo:
    def test_analytic_scores_on_independent_normals(self):
        sfe = explain_ind_do(std_normal_oracle(2), np.array([0.0, 5.0]))
        assert sfe.order == (1, 0)
        # Scores from the factorized density, computed analytically.
        expect_first = phi(0.0) * (1.0 - phi(5.0))
        expect_second = phi(5.0) * (1.0 - phi(0.0))
        assert sfe.step_scores[0] == pytest.approx(expect_first, rel=1e-9)
        assert sfe.step_scores[1] == pytest.approx(expect_second, rel=1e-9)

    def test_symmetric_point_ties_by_index(self):
        sfe = explain_ind_do(ConstantOracle(), np.zeros(4))
        assert sfe.order == (0, 1, 2, 3)

    def test_order_matches_recomputed_scores(self):
        model, rng = fitted_egmm_oracle(seed=21, n=5)
        x = rng.normal(scale=2.0, size=5)
        sfe = explain_ind_do(model, x)
        # Oracle: recompute scores in plain density space and sort.
        full = math.exp(model.log_marginal(x, tuple(range(5))))
        scores = [
            math.exp(model.log_marginal(x, tuple(t for t in range(5) if t != j))) - full
            for j in range(5)
        ]
        expected = tuple(sorted(range(5), key=lambda j: (-scores[j], j)))
        assert sfe.order == expected

    def test_underflowing_densities_still_ordered(self):
        # Singleton marginals around exp(-2000) underflow to 0.0 in direct
        # exponentiation; the shared max subtraction must keep the order.
        oracle = GaussianOracle(np.zeros(3), np.eye(3) * 1e-4)
        x = np.array([0.5, 1.0, 0.2])
        sfe = explain_ind_do(oracle, x)
        assert sfe.order == (1, 0, 2)

    def test_rejects_one_feature(self):
        with pytest.raises(ValueError):
            explain_ind_do(std_normal_oracle(1), np.zeros(1))


class TestSeqDo:
    def test_two_features_matches_seq_marg_first_pick(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            oracle = GaussianOracle(rng.normal(size=2), np.diag(rng.uniform(0.5, 2.0, size=2)))
            x = rng.normal(scale=3.0, size=2)
            assert (
                explain_seq_do(oracle, x, k=1).order[0]
                == explain_seq_marg(oracle, x, k=1).order[0]
            )

    def test_equal_complements_tie_by_index(self):
        sfe = explain_seq_do(ConstantOracle(), np.zeros(4), k=3)
        assert sfe.order == (0, 1, 2)

    def test_each_step_beats_alternatives(self):
        model, rng = fitted_egmm_oracle(seed=33, n=4)
        x = rng.normal(scale=2.0, size=4)
        sfe = explain_seq_do(model, x, k=3)
        chosen = []
        for e, score in zip(sfe.order, sfe.step_scores):
            remaining = [j for j in range(4) if j not in chosen]
            for j in remaining:
                complement = tuple(t for t in remaining if t != j)
                alt = model.log_marginal(x, complement)
                assert score >= alt - 1e-12
            chosen.append(e)

    def test_full_length_appends_last_feature_without_query(self):
        counter = CountingOracle(std_normal_oracle(3))
        sfe = explain_seq_do(counter, np.array([3.0, 1.0, 2.0]), k=3)
        assert len(sfe.order) == 3
        assert set(sfe.order) == {0, 1, 2}
        assert math.isnan(sfe.step_scores[2])
        assert all(len(c) >= 1 for c in counter.calls)


class TestRandom:
    def test_deterministic(self):
        assert explain_random(6, 4, seed=99).order == explain_random(6, 4, seed=99).order

    def test_single_feature(self):
        assert explain_random(1, seed=0).order == (0,)

    def test_first_position_frequencies(self):
        counts = np.zeros(4)
        trials = 10_000
        for seed in range(trials):
            counts[explain_random(4, seed=seed).order[0]] += 1
        np.testing.assert_allclose(counts / trials, 0.25, atol=0.02)

    def test_scores_are_zero(self):
        assert explain_random(5, 3, seed=1).step_scores == (0.0, 0.0, 0.0)


class TestSharedProperties:
    def test_no_duplicates_and_tie_rule_under_constant_oracle(self):
        x = np.zeros(6)
        for explainer in ALL_EXPLAINERS:
            sfe = explainer(ConstantOracle(), x)
            assert len(set(sfe.order)) == len(sfe.order)
            assert sfe.order == tuple(range(len(sfe.order)))

    def test_monotone_transform_leaves_orders_unchanged(self):
        model, rng = fitted_egmm_oracle(seed=39, n=4)
        x = rng.normal(scale=2.0, size=4)
        warped = TransformedOracle(model, lambda v: 3.0 * v + 11.0)
        for explainer in ALL_EXPLAINERS:
            assert explainer(model, x).order == explainer(warped, x).order

    def test_invalid_k_rejected(self):
        for explainer in ALL_EXPLAINERS:
            with pytest.raises(ValueError):
                explainer(std_normal_oracle(3), np.zeros(3), k=0)
            with pytest.raises(ValueError):
                explainer(std_normal_oracle(3), np.zeros(3), k=4)


def zero_density_egmm_case():
    """A fitted EGMM and a point whose log density is -inf on every subset
    holding feature 0 or 1: those coordinates are 1e200."""
    X = np.random.default_rng(0).normal(size=(300, 4))
    model = egmm_fit(X, EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=1))
    return model, np.array([1e200, 1e200, 0.5, -0.3])


class TestMinusInfDensities:
    """A log density of -inf is a valid value that ties like any other."""

    def test_seq_do_ties_minus_inf_by_index(self):
        sfe = explain_seq_do(ConstantOracle(-math.inf), np.zeros(3))
        assert sfe.order == (0, 1, 2)
        assert sfe.step_scores[:2] == (-math.inf, -math.inf)
        assert math.isnan(sfe.step_scores[2])

    def test_seq_do_on_a_zero_density_egmm_point(self):
        model, x = zero_density_egmm_case()
        sfe = explain_seq_do(model, x)
        assert sfe.order == (0, 1, 2, 3)
        assert sfe.step_scores[0] == -math.inf
        assert all(math.isfinite(s) for s in sfe.step_scores[1:3])

    def test_ind_do_scores_zero_when_every_density_is_zero(self):
        sfe = explain_ind_do(ConstantOracle(-math.inf), np.zeros(3))
        assert sfe.order == (0, 1, 2)
        assert sfe.step_scores == (0.0, 0.0, 0.0)
        model, x = zero_density_egmm_case()
        sfe = explain_ind_do(model, x)
        assert sfe.order == (0, 1, 2, 3)
        assert sfe.step_scores == (0.0, 0.0, 0.0, 0.0)


# Recorded on fitted_egmm_oracle(seed=7, n=5); a change to which subsets a
# search queries, in what order, or how it breaks ties shows here bit for bit.
PINNED_POINTS = (
    np.array([2.5, -0.4, 0.1, 3.0, -1.7]),
    np.array([0.2, 0.2, -4.0, 0.0, 1.1]),
)
PINNED_EXPLANATIONS = [
    (0, explain_ind_marg, (3, 0, 4, 2, 1), (
        "-0x1.37e54a364e830p+2", "-0x1.93eba2f18c20cp+1", "-0x1.ccb50a0c04756p+0",
        "-0x1.ecffe643a972fp-1", "-0x1.dd3bbd43a38d5p-1",
    )),
    (0, explain_seq_marg, (3, 0, 4, 2, 1), (
        "-0x1.37e54a364e830p+2", "-0x1.0b520ad48c3a6p+3", "-0x1.42febe837d630p+3",
        "-0x1.688fdd738625fp+3", "-0x1.7d8d3b79f5197p+3",
    )),
    (0, explain_ind_do, (3, 0, 4, 2, 1), (
        "0x1.c80b1b4e4274ap-11", "0x1.2dc78562ef6bep-13", "0x1.e9f977d1fd7b5p-16",
        "0x1.8c60b67f10ea0p-17", "0x1.9c97ac4c996d2p-18",
    )),
    (0, explain_seq_do, (3, 0, 4, 2, 1), (
        "-0x1.c289012a2acd8p+2", "-0x1.d5ad8f92af6d5p+1", "-0x1.f32dec7d76104p+0",
        "-0x1.dd3bbd43a38d5p-1", "nan",
    )),
    (1, explain_ind_marg, (2, 4, 0, 3, 1), (
        "-0x1.df349abb0f4d8p+2", "-0x1.cbe1f4c505ceep+0", "-0x1.4b57ed038ab40p+0",
        "-0x1.ec46ab4157e36p-1", "-0x1.a5d7e89cda4a7p-1",
    )),
    (1, explain_seq_marg, (2, 4, 1, 3, 0), (
        "-0x1.df349abb0f4d8p+2", "-0x1.2f49c372c4307p+3", "-0x1.55676eb14c9a1p+3",
        "-0x1.77aba87f78941p+3", "-0x1.9316f48cda761p+3",
    )),
    (1, explain_ind_do, (2, 4, 1, 3, 0), (
        "0x1.e03089f4b2685p-8", "0x1.76204c025e49fp-16", "0x1.760781c2f84cep-18",
        "0x1.5750627c40999p-18", "0x1.33d95c206b983p-18",
    )),
    (1, explain_seq_do, (2, 4, 0, 3, 1), (
        "-0x1.3a9b072bd9a46p+2", "-0x1.9455d13d1653cp+1", "-0x1.b916bc440f8dap+0",
        "-0x1.a5d7e89cda4a7p-1", "nan",
    )),
]


def test_explanations_are_pinned():
    model, _ = fitted_egmm_oracle(seed=7, n=5)
    for point, explainer, order, scores in PINNED_EXPLANATIONS:
        sfe = explainer(model, PINNED_POINTS[point])
        assert (sfe.order, tuple(s.hex() for s in sfe.step_scores)) == (order, scores), explainer.__name__


@pytest.mark.parametrize("subset", [[], [-1], [3], [0, 3]])
def test_every_subset_query_rejects_the_same_subsets(subset):
    n = 3
    gmm = GmmModel(components=(GaussianComponent(weight=1.0, mean=np.zeros(n), covariance=np.eye(n)),), n=n)
    data = make_labeled_dataset(np.random.default_rng(0), n_features=n)
    analyst = AnalystModel(data, ForestConfig(tree_count=5))
    x = np.zeros(n)
    queries = {
        "gmm_log_marginal": lambda s: gmm_log_marginal(gmm, x, s),
        "egmm_log_marginal": lambda s: egmm_log_marginal(identity_egmm([gmm]), x, s),
        "classifier_for": analyst.classifier_for,
        "prob_normal": lambda s: analyst.prob_normal(x, s),
    }
    messages = {}
    for name, query in queries.items():
        with pytest.raises(ValueError) as info:
            query(subset)
        messages[name] = str(info.value)
    expected = f"feature indices must lie in [0, {n}), got {sorted(subset)}"
    assert messages == dict.fromkeys(queries, expected)
