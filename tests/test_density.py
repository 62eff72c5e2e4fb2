import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.stats import multivariate_normal

from conftest import random_spd, trapezoid, trapezoid_marginal
from sfexplain.dataset import Dataset
from sfexplain.explain import explain_ind_marg, explain_seq_marg
import sfexplain.density as density
from sfexplain.density import (
    DegenerateCluster,
    EgmmConfig,
    EgmmModel,
    MalformedModelFile,
    GmmModel,
    _rank_by_score,
    egmm_fit,
    egmm_log_marginal,
    fit_gmm,
    gmm_log_marginal,
    identity_egmm,
    load_egmm,
    rank_points,
    save_egmm,
)

LOG_STD_NORMAL_PEAK = -0.5 * math.log(2.0 * math.pi)


def single_standard_normal(n):
    return GmmModel(np.ones(1), np.zeros((1, n)), np.eye(n)[None])


def random_mixture(rng, n, k, spread=3.0):
    weights = rng.dirichlet(np.ones(k))
    means = [rng.normal(scale=spread, size=n) for _ in range(k)]
    covs = [random_spd(rng, n, scale=rng.uniform(0.3, 1.5)) for _ in range(k)]
    model = GmmModel(weights, np.array(means), np.array(covs))
    return model, weights, means, covs


class TestFitGmm:
    def test_single_component_recovers_sample_moments(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(1000, 2))
        model = fit_gmm(X, k=1, seed=0)
        comp = model.components[0]
        # Independent oracle: moments computed directly from the sample.
        sample_mean = X.mean(axis=0)
        sample_cov = np.cov(X, rowvar=False, ddof=0)
        np.testing.assert_allclose(comp.mean, sample_mean, atol=1e-8)
        np.testing.assert_allclose(comp.covariance, sample_cov, atol=1e-4)
        # Law-of-large-numbers bounds from the contract.
        assert np.all(np.abs(comp.mean) < 0.1)
        assert np.all(np.abs(np.diag(comp.covariance) - 1.0) < 0.15)

    def test_one_component_per_point_dominates_single_fit(self):
        rng = np.random.default_rng(5)
        X = rng.normal(scale=4.0, size=(8, 2))
        per_point = fit_gmm(X, k=8, seed=1)
        single = fit_gmm(X, k=1, seed=1)
        for x in X:
            many = gmm_log_marginal(per_point, x, [0, 1])
            one = gmm_log_marginal(single, x, [0, 1])
            assert many >= one

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            X = rng.normal(size=(rng.integers(50, 200), rng.integers(1, 4)))
            model = fit_gmm(X, k=int(rng.integers(1, 4)), seed=trial)
            lls = np.array(model.em_log_likelihoods)
            assert np.all(np.diff(lls) >= -1e-9)

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((2, 1)), k=3, seed=0)

    def test_likelihood_decrease_is_retried(self):
        # A bootstrap of blob data on which the first EM attempt (seed 1)
        # shrinks a component onto a few duplicated points until the ridge
        # breaks monotonicity; the fit must retry rather than fail.
        rng = np.random.default_rng(0)
        centres = rng.normal(scale=3.0, size=(6, 4))
        X = centres[rng.integers(6, size=60)] + rng.normal(size=(60, 4))
        X = X[rng.integers(0, 60, size=60)]
        model = fit_gmm(X, k=5, seed=1)
        lls = np.array(model.em_log_likelihoods)
        assert np.all(np.diff(lls) >= -1e-9 * np.maximum(1.0, np.abs(lls[:-1])))

    def test_degenerate_data_surfaces_after_retries(self):
        # Zero-variance data defeats every retry.
        with pytest.raises(DegenerateCluster):
            fit_gmm(np.ones((20, 2)), k=2, seed=0)

    @pytest.mark.parametrize("scale", [1e200, 1e154])
    def test_overflowing_kmeans_distances_surface_after_retries(self, scale):
        # Finite points whose squared distances overflow leave k-means++ no
        # sampling weights; every attempt fails instead of drawing from NaN.
        X = np.random.default_rng(0).normal(size=(30, 2)) * scale
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DegenerateCluster):
            fit_gmm(X, k=2, seed=0)

    def test_non_finite_em_step_is_retried(self, monkeypatch):
        # LAPACK's potrf need not flag a NaN covariance, so EM itself must
        # turn a non-finite step into a failed attempt and retry.
        calls = []
        kmeans = density._kmeans_init

        def first_attempt_nan(X, k, rng):
            centers, assign = kmeans(X, k, rng)
            calls.append(k)
            if len(calls) == 1:
                centers[0, 0] = np.nan
            return centers, assign

        monkeypatch.setattr(density, "_kmeans_init", first_attempt_nan)
        X = np.random.default_rng(5).normal(size=(80, 2))
        model = fit_gmm(X, k=2, seed=0)
        assert len(calls) == 2
        for comp in model.components:
            assert np.all(np.isfinite(comp.mean)) and np.all(np.isfinite(comp.covariance))
        assert np.all(np.isfinite(model.em_log_likelihoods))

    @pytest.mark.parametrize("bad", ["weights", "means", "covs"])
    def test_non_finite_parameters_fail_the_attempt(self, bad):
        params = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)), "covs": np.stack([np.eye(2)] * 2)}
        params[bad].flat[-1] = np.nan
        with pytest.raises(density._DegenerateFit):
            density._em_log_likelihoods(np.zeros((3, 2)), **params)


def reference_kmeans(X, k, rng):
    """k-means++ seeding, exactly 10 Lloyd iterations, then one assignment."""
    N = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(N)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        pick = rng.choice(N, p=d2 / total) if total > 0 else rng.integers(N)
        centers[c] = X[pick]
        d2 = np.minimum(d2, np.sum((X - centers[c]) ** 2, axis=1))
    for _ in range(10):
        assign = np.argmin(np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
        for c in range(k):
            if np.any(assign == c):
                centers[c] = X[assign == c].mean(axis=0)
    assign = np.argmin(np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2), axis=1)
    return centers, assign


class TestKmeansInit:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_ten_iteration_reference(self, seed):
        # Stopping once an assignment repeats must give the same centers and
        # assignment, bit for bit, as always running all 10 iterations.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        centres = rng.normal(scale=2.0, size=(5, n))
        X = centres[rng.integers(5, size=120)] + rng.normal(size=(120, n))
        X = X[rng.integers(0, 120, size=120)]
        k = int(rng.integers(2, 7))
        centers, assign = density._kmeans_init(X, k, np.random.default_rng(seed))
        ref_centers, ref_assign = reference_kmeans(X, k, np.random.default_rng(seed))
        assert np.array_equal(centers, ref_centers)
        assert np.array_equal(assign, ref_assign)

    def test_duplicate_points_leave_a_cluster_empty(self):
        # Three distinct rows and k=4: one center keeps its seed after the
        # first update, as in the reference loop.
        X = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), 4, axis=0)
        for seed in range(5):
            centers, assign = density._kmeans_init(X, 4, np.random.default_rng(seed))
            ref_centers, ref_assign = reference_kmeans(X, 4, np.random.default_rng(seed))
            assert np.array_equal(centers, ref_centers)
            assert np.array_equal(assign, ref_assign)

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_go_to_the_first_nearest_center(self, seed):
        # Integer points and a repeated center make equal distances common;
        # argmin over the broadcast N x k x n tensor picks the first minimum.
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(60, 2)).astype(float)
        centers = X[rng.integers(60, size=5)]
        centers[3] = centers[1]
        d2 = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assert np.any(np.sum(d2 == d2.min(axis=1, keepdims=True), axis=1) > 1)
        assert np.array_equal(density._nearest_center(X, centers), np.argmin(d2, axis=1))

    def test_peak_memory_is_independent_of_k(self):
        X = np.random.default_rng(5).normal(size=(20_000, 20))
        tracemalloc.start()
        try:
            density._kmeans_init(X, 5, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * X.nbytes


class TestGmmLogMarginal:
    def test_standard_normal_singleton(self):
        model = single_standard_normal(2)
        value = gmm_log_marginal(model, np.array([0.0, 123.4]), {0})
        assert value == pytest.approx(LOG_STD_NORMAL_PEAK, abs=1e-12)

    def test_full_subset_equals_joint(self):
        rng = np.random.default_rng(7)
        model, weights, means, covs = random_mixture(rng, 3, 2)
        x = rng.normal(size=3)
        full = gmm_log_marginal(model, x, [0, 1, 2])
        # Independent oracle: scipy mixture evaluation.
        direct = math.log(
            sum(
                w * multivariate_normal.pdf(x, mean=m, cov=c)
                for w, m, c in zip(weights, means, covs)
            )
        )
        assert full == pytest.approx(direct, rel=1e-10)

    def test_marginal_matches_numerical_integration(self):
        rng = np.random.default_rng(13)
        model, weights, means, covs = random_mixture(rng, 3, 2)
        x = rng.normal(size=3)
        got = math.exp(gmm_log_marginal(model, x, [0, 2]))
        want = trapezoid_marginal(weights, means, covs, x, keep=[0, 2], drop=[1])
        assert got == pytest.approx(want, rel=1e-3)

    def test_singleton_normalizes_to_one(self):
        rng = np.random.default_rng(17)
        model, weights, means, covs = random_mixture(rng, 2, 3)
        lows = [m[0] - 8 * math.sqrt(c[0, 0]) for m, c in zip(means, covs)]
        highs = [m[0] + 8 * math.sqrt(c[0, 0]) for m, c in zip(means, covs)]
        grid = np.linspace(min(lows), max(highs), 2001)
        dens = [math.exp(gmm_log_marginal(model, np.array([g, 0.0]), [0])) for g in grid]
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)

    def test_marginalization_consistency(self):
        # Integrating the {0,1} marginal over feature 1 matches the {0} marginal.
        rng = np.random.default_rng(23)
        model, weights, means, covs = random_mixture(rng, 3, 2)
        x = rng.normal(size=3)
        lows = [m[1] - 8 * math.sqrt(c[1, 1]) for m, c in zip(means, covs)]
        highs = [m[1] + 8 * math.sqrt(c[1, 1]) for m, c in zip(means, covs)]
        grid = np.linspace(min(lows), max(highs), 2001)
        dens = []
        for g in grid:
            probe = x.copy()
            probe[1] = g
            dens.append(math.exp(gmm_log_marginal(model, probe, [0, 1])))
        integrated = trapezoid(dens, grid)
        assert integrated == pytest.approx(math.exp(gmm_log_marginal(model, x, [0])), rel=1e-3)

    def test_empty_subset_rejected(self):
        model = single_standard_normal(2)
        with pytest.raises(ValueError):
            gmm_log_marginal(model, np.zeros(2), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = single_standard_normal(3)
        x = np.array([0.5, bad, -0.2])
        with pytest.raises(ValueError, match="finite"):
            gmm_log_marginal(model, x, [1, 2])
        # A non-finite value outside the queried subset is never read.
        assert gmm_log_marginal(model, x, [0, 2]) == pytest.approx(
            2 * LOG_STD_NORMAL_PEAK - 0.5 * (0.25 + 0.04)
        )

    def test_non_positive_definite_covariance_raises(self):
        model = GmmModel(np.ones(1), np.zeros((1, 2)), np.array([[[1.0, 2.0], [2.0, 1.0]]]))
        with pytest.raises(LinAlgError):
            gmm_log_marginal(model, np.zeros(2), [0, 1])
        # One feature's block alone is positive definite.
        assert gmm_log_marginal(model, np.zeros(2), [0]) == pytest.approx(
            LOG_STD_NORMAL_PEAK
        )

    def test_out_of_range_subset_rejected(self):
        model = single_standard_normal(2)
        with pytest.raises(ValueError):
            gmm_log_marginal(model, np.zeros(2), [2])

    @pytest.mark.parametrize(
        "query",
        [
            lambda model: egmm_log_marginal(model, np.zeros(4), (0, 1)),
            lambda model: egmm_log_marginal(model, np.zeros(2), (2,)),
            lambda model: egmm_log_marginal(model, np.zeros(2), (0,)),
            lambda model: model.log_marginal(np.zeros((1, 4)), (0,)),
            lambda model: explain_ind_marg(model, np.zeros(2)),
            lambda model: explain_seq_marg(model, np.zeros(4)),
            lambda model: rank_points(model, Dataset(np.zeros((3, 2)), np.zeros(3, bool), ("a", "b"))),
        ],
        ids=["wider", "subset-past-the-point", "narrower", "row-of-4", "indmarg", "seqmarg", "rank"],
    )
    def test_point_of_the_wrong_width_is_rejected(self, query):
        # On a 3-feature model, a 4-wide point was answered from its first
        # features, a 2-wide one explained as if it were the whole point, and
        # subset (2,) of a 2-wide point raised a bare IndexError.
        model = identity_egmm([single_standard_normal(3)])
        with pytest.raises(ValueError, match="model's 3 features"):
            query(model)


class TestEgmmConfig:
    # Built from Python, not JSON: a bool passed the check, and an integer
    # past float64's range raised a bare OverflowError.
    @pytest.mark.parametrize("em_tol", [True, 10**400], ids=["bool", "int-past-float64"])
    def test_em_tol_must_be_a_finite_number(self, em_tol):
        with pytest.raises(ValueError, match="em_tol finite and > 0"):
            EgmmConfig(em_tol=em_tol)


class TestEgmmFit:
    def test_default_config_counts(self):
        rng = np.random.default_rng(31)
        X = np.vstack([rng.normal(size=(200, 2)), rng.normal(loc=3.0, size=(100, 2))])
        model = egmm_fit(X, EgmmConfig(seed=3))
        assert 41 <= len(model.members) <= 45
        counts = sorted({len(m.components) for m in model.members})
        assert set(counts) <= {3, 4, 5}

    def test_zero_retention_quantile_keeps_all(self):
        rng = np.random.default_rng(37)
        X = rng.normal(size=(120, 2))
        config = EgmmConfig(members_per_k=2, component_counts=(2, 3), retention_quantile=0.0, seed=1)
        model = egmm_fit(X, config)
        assert len(model.members) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(150, 3))
        config = EgmmConfig(members_per_k=2, component_counts=(2,), seed=8)
        m1 = egmm_fit(X, config)
        m2 = egmm_fit(X, config)
        assert len(m1.members) == len(m2.members)
        x = rng.normal(size=3)
        assert egmm_log_marginal(m1, x, [0, 2]) == egmm_log_marginal(m2, x, [0, 2])

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(43)
        X = rng.normal(size=(150, 2))
        config = EgmmConfig(members_per_k=3, component_counts=(2, 3), seed=2)
        serial = egmm_fit(X, config, workers=1)
        parallel = egmm_fit(X, config, workers=4)
        x = rng.normal(size=2)
        assert egmm_log_marginal(serial, x, [0]) == egmm_log_marginal(parallel, x, [0])


class TestEgmmLogMarginal:
    def test_single_member_identity(self):
        rng = np.random.default_rng(47)
        member, *_ = random_mixture(rng, 2, 2)
        ensemble = identity_egmm([member])
        x = rng.normal(size=2)
        assert egmm_log_marginal(ensemble, x, [1]) == gmm_log_marginal(member, x, [1])

    def test_two_identical_members(self):
        rng = np.random.default_rng(53)
        member, *_ = random_mixture(rng, 2, 2)
        ensemble = identity_egmm([member, member])
        x = rng.normal(size=2)
        assert egmm_log_marginal(ensemble, x, [0, 1]) == pytest.approx(
            gmm_log_marginal(member, x, [0, 1]), rel=1e-14
        )

    def test_matches_pooled_mixture(self):
        # Oracle: flatten a 3-member ensemble into one big mixture with
        # member weights divided by the member count.
        rng = np.random.default_rng(59)
        members = []
        pooled = []
        for _ in range(3):
            model, weights, means, covs = random_mixture(rng, 3, 2)
            members.append(model)
            pooled.extend(zip(weights / 3.0, means, covs))
        ensemble = identity_egmm(members)
        weights, means, covs = zip(*pooled)
        pooled_model = GmmModel(np.array(weights), np.array(means), np.array(covs))
        x = rng.normal(size=3)
        got = egmm_log_marginal(ensemble, x, [0, 1, 2])
        want = gmm_log_marginal(pooled_model, x, [0, 1, 2])
        assert got == pytest.approx(want, rel=1e-12)

    def test_member_order_invariant(self):
        rng = np.random.default_rng(61)
        members = [random_mixture(rng, 2, 2)[0] for _ in range(4)]
        x = rng.normal(size=2)
        forward = egmm_log_marginal(identity_egmm(members), x, [0])
        backward = egmm_log_marginal(identity_egmm(members[::-1]), x, [0])
        assert forward == pytest.approx(backward, rel=1e-14)

    def test_standardization_corrects_units(self):
        # Fit on badly scaled data; the density must integrate to 1 in
        # original units, which fails without the Jacobian correction.
        rng = np.random.default_rng(67)
        X = np.column_stack([rng.normal(scale=1000.0, size=400), rng.normal(scale=0.01, size=400)])
        model = egmm_fit(X, EgmmConfig(members_per_k=2, component_counts=(1,), seed=4))
        grid = np.linspace(-8000, 8000, 4001)
        dens = [math.exp(egmm_log_marginal(model, np.array([g, 0.0]), [0])) for g in grid]
        assert trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-3)


class TestRankPoints:
    def test_rank_by_score_sorts_ascending(self):
        assert _rank_by_score(np.log(np.array([0.5, 0.1, 0.9]))).tolist() == [1, 0, 2]

    def test_rank_by_score_ties_by_index(self):
        assert _rank_by_score(np.zeros(4)).tolist() == [0, 1, 2, 3]

    def test_far_outlier_ranked_first(self):
        rng = np.random.default_rng(71)
        train = rng.normal(size=(300, 2))
        model = egmm_fit(train, EgmmConfig(members_per_k=2, component_counts=(1, 2), seed=0))
        X = rng.normal(size=(200, 2))
        X[37] = (10.0, 10.0)
        labels = np.zeros(200, bool)
        labels[37] = True
        ds = Dataset(points=X, labels=labels, feature_names=("a", "b"))
        ranking = rank_points(model, ds)
        assert ranking[0] == 37
        # Direct density comparison: the outlier's joint density is the smallest.
        densities = [egmm_log_marginal(model, x, [0, 1]) for x in X]
        assert densities[37] == min(densities)

    def test_ranking_sorts_full_subset_queries(self):
        # Ranking and subset queries share one density: on standardized
        # data, ranking all rows equals sorting every row's full-subset query.
        rng = np.random.default_rng(75)
        X = rng.normal(size=(150, 3)) * [100.0, 0.01, 5.0] + [1e3, -2.0, 7.0]
        model = egmm_fit(X, EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=1))
        assert np.all(model.shift != 0.0) and np.all(model.scale != 1.0)
        ds = Dataset(points=X, labels=[False] * 150, feature_names=("a", "b", "c"))
        scores = [egmm_log_marginal(model, x, range(3)) for x in X]
        assert rank_points(model, ds).tolist() == _rank_by_score(np.array(scores)).tolist()

    def test_duplicate_points_rank_by_index(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        # Fit on distinct data, rank duplicates.
        rng = np.random.default_rng(73)
        train = rng.normal(size=(50, 2))
        model = egmm_fit(train, EgmmConfig(members_per_k=1, component_counts=(1,), seed=0))
        ds = Dataset(points=X, labels=[False] * 6, feature_names=("a", "b"))
        assert rank_points(model, ds).tolist() == [0, 1, 2, 3, 4, 5]


class TestSerialization:
    def test_round_trip_preserves_log_densities(self, tmp_path):
        rng = np.random.default_rng(79)
        X = np.vstack([rng.normal(size=(120, 3)), rng.normal(loc=2.5, size=(60, 3))])
        model = egmm_fit(X, EgmmConfig(members_per_k=2, component_counts=(2, 3), seed=6))
        path = tmp_path / "model.json"
        save_egmm(model, path)
        loaded = load_egmm(path)
        for _ in range(10):
            x = rng.normal(size=3)
            subset = rng.choice(3, size=rng.integers(1, 4), replace=False)
            a = egmm_log_marginal(model, x, subset)
            b = egmm_log_marginal(loaded, x, subset)
            assert b == pytest.approx(a, abs=1e-12)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError, match="not an ensemble model"):
            load_egmm(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.pop("members"),
            lambda p: p.update(members=[{}]),
            lambda p: p["members"][0]["components"][0].update(mean=[0.0]),
            lambda p: p["members"][0]["components"][0].update(covariance=[[1.0, 0.0], [0.0, 1.0]]),
            lambda p: p["members"][0]["components"][0].update(weight="heavy"),
            lambda p: p["members"][0]["components"][0].update(weight=None),
            lambda p: p.update(shift=[0.0]),
            lambda p: p.update(n="3"),
            lambda p: p["members"][0]["components"][0]["covariance"][1].__setitem__(1, math.nan),
            lambda p: p["members"][0]["components"][0]["mean"].__setitem__(0, math.inf),
            lambda p: p["shift"].__setitem__(2, math.nan),
            lambda p: p["scale"].__setitem__(0, math.inf),
            lambda p: p["config"].update(seed=3.7),
            lambda p: p["config"].update(component_counts=[2.5]),
            lambda p: p["config"].update(component_counts=[True, 2]),
            lambda p: p["config"].update(em_tol=True),
            lambda p: p["scale"].__setitem__(1, 10**400),
            # Symmetric but not positive definite: it loaded, and the first
            # query raised LinAlgError.
            lambda p: p["members"][0]["components"][0].update(
                covariance=[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            ),
        ],
        ids=["no-members", "no-components", "mean-shape", "covariance-shape",
             "weight-string", "weight-null", "shift-shape", "n-string", "covariance-nan", "mean-inf",
             "shift-nan", "scale-inf", "config-seed-float", "config-count-float", "config-count-bool",
             "config-tol-bool", "scale-int-past-float64", "covariance-not-positive-definite"],
    )
    def test_malformed_file_raises_typed_error(self, tmp_path, corrupt):
        X = np.random.default_rng(84).normal(size=(60, 3))
        path = tmp_path / "model.json"
        save_egmm(egmm_fit(X, EgmmConfig(members_per_k=1, component_counts=(2,), seed=1)), path)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedModelFile):
            load_egmm(path)

    def test_non_utf8_file_raises_typed_error_naming_the_path(self, tmp_path):
        # It raised a bare UnicodeDecodeError that did not name the file.
        path = tmp_path / "model.json"
        path.write_bytes(b'{"format": "\xff\xfe"}')
        with pytest.raises(MalformedModelFile, match=re.escape(str(path))):
            load_egmm(path)

    @pytest.mark.parametrize("n", [1.0, True])
    def test_n_must_be_a_json_integer(self, tmp_path, n):
        # Both compare equal to a one-feature model's n of 1; only the JSON
        # type tells them apart.
        X = np.random.default_rng(86).normal(size=(60, 1))
        path = tmp_path / "model.json"
        save_egmm(egmm_fit(X, EgmmConfig(members_per_k=1, component_counts=(2,), seed=1)), path)
        payload = json.loads(path.read_text())
        payload["n"] = n
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedModelFile, match="n must be a JSON integer, got " + json.dumps(n)):
            load_egmm(path)

    def test_n_must_match_every_member(self, tmp_path):
        # Shift and scale cut to the file's n still leave members 3 wide.
        X = np.random.default_rng(86).normal(size=(60, 3))
        path = tmp_path / "model.json"
        save_egmm(egmm_fit(X, EgmmConfig(members_per_k=1, component_counts=(2,), seed=1)), path)
        payload = json.loads(path.read_text())
        payload.update(n=2, shift=payload["shift"][:2], scale=payload["scale"][:2])
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedModelFile, match="n=2"):
            load_egmm(path)

    @pytest.mark.parametrize("bad", [True, "1"], ids=["bool", "string"])
    @pytest.mark.parametrize("field", ["weight", "mean", "covariance", "shift", "scale"])
    def test_numbers_must_be_json_numbers(self, tmp_path, field, bad):
        # A bool or a numeric string would pass np.array's float cast (true
        # as 1.0, "1" as 1.0); only the JSON type tells them apart.
        X = np.random.default_rng(85).normal(size=(60, 2))
        path = tmp_path / "model.json"
        save_egmm(egmm_fit(X, EgmmConfig(members_per_k=1, component_counts=(1,), seed=1)), path)
        payload = json.loads(path.read_text())
        component = payload["members"][0]["components"][0]
        if field == "weight":
            component["weight"] = bad
        elif field == "covariance":
            component["covariance"][1][1] = bad
        else:
            (component if field == "mean" else payload)[field][0] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(MalformedModelFile, match=f"{field} must be a "):
            load_egmm(path)

    def test_truncated_file_raises_typed_error(self, tmp_path):
        X = np.random.default_rng(85).normal(size=(60, 2))
        path = tmp_path / "model.json"
        save_egmm(egmm_fit(X, EgmmConfig(members_per_k=1, component_counts=(2,), seed=1)), path)
        path.write_text(path.read_text()[:100])
        with pytest.raises(MalformedModelFile):
            load_egmm(path)

    def test_config_survives_round_trip(self, tmp_path):
        rng = np.random.default_rng(83)
        X = rng.normal(size=(80, 2))
        config = EgmmConfig(members_per_k=1, component_counts=(2,), seed=12)
        model = egmm_fit(X, config)
        path = tmp_path / "model.json"
        save_egmm(model, path)
        assert load_egmm(path).config == config


class TestComponentValidation:
    @staticmethod
    def one_component(mean, cov, weight=1.0):
        return GmmModel(np.array([weight]), np.array([mean], dtype=float), np.array([cov], dtype=float))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            self.one_component(np.zeros(2), [[1.0, 0.5], [0.1, 1.0]])

    @pytest.mark.parametrize(
        "mean, cov",
        [
            ([np.nan, 0.0], np.eye(2)),
            ([0.0, np.inf], np.eye(2)),
            ([0.0, 0.0], [[1.0, 0.0], [0.0, np.nan]]),
            ([0.0, 0.0], [[1.0, np.inf], [np.inf, 1.0]]),
        ],
        ids=["mean-nan", "mean-inf", "cov-nan", "cov-inf"],
    )
    def test_non_finite_parameters_rejected(self, mean, cov):
        with pytest.raises(ValueError, match="finite"):
            self.one_component(mean, cov)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            self.one_component(np.zeros(1), np.eye(1), weight=0.4)

    @pytest.mark.parametrize(
        "weights, means, covs",
        [
            ([0.5, 0.5], np.zeros((1, 2)), np.eye(2)[None]),
            ([1.0], np.zeros((1, 2)), np.eye(3)[None]),
            ([1.0], np.zeros(2), np.eye(2)[None]),
            ([], np.zeros((0, 2)), np.zeros((0, 2, 2))),
        ],
        ids=["two-weights-one-mean", "mean-and-covariance-widths", "mean-not-stacked", "no-components"],
    )
    def test_shapes_must_agree(self, weights, means, covs):
        with pytest.raises(ValueError, match="shapes|at least one component"):
            GmmModel(np.array(weights, dtype=float), means, covs)

    def test_arrays_and_component_views_are_read_only(self):
        model = single_standard_normal(2)
        assert model.n == 2
        [(weight, mean, cov)] = model.components
        assert weight == 1.0
        for a in (model.weights, model.means, model.covariances, mean, cov):
            assert not a.flags.writeable
        assert np.shares_memory(mean, model.means) and np.shares_memory(cov, model.covariances)

    def test_models_compare_by_identity(self):
        a, b = single_standard_normal(2), single_standard_normal(2)
        assert a == a and a != b and len({a, b}) == 2
        assert identity_egmm([a]) != identity_egmm([a])


# sha256 of the file save_egmm wrote for this test's model, recorded before
# mixtures were stored as stacked arrays; any change to the bytes shows here.
PINNED_MODEL_SHA256 = "1ca2ae01ab4db6d5eb5ed1d15713725f45aa7d86764c390f452ec02814b28394"


def test_saved_model_file_is_pinned(tmp_path):
    X = np.random.default_rng(5).normal(size=(80, 3))
    model = egmm_fit(X, EgmmConfig(members_per_k=2, component_counts=(1, 2), seed=3))
    path = tmp_path / "model.json"
    save_egmm(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256
    save_egmm(load_egmm(path), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
