"""Gaussian mixture density estimation and bootstrap-ensemble detectors.

A single mixture is fit by EM with k-means++ initialization. The ensemble
detector trains one mixture per bootstrap resample, varies the component
count across members, discards the lowest-scoring members, and answers
density queries as the uniform mixture of the survivors.

Every density query is a joint marginal over an arbitrary nonempty feature
subset, computed in closed form by slicing component means and covariance
blocks. All public scores are log densities.

One kernel, ``_component_log_likelihoods``, computes every Gaussian log
density, with one LAPACK ``potrf`` (Cholesky) and one ``trtrs`` (triangular
solve) per component. EM's E-step, member scoring, ranking and every subset
query share it through ``_log_density``, which standardizes the rows, rejects
non-finite query values and combines components and members. The kernel
itself checks no finiteness: a mixture rejects non-finite parameters when
built, and EM rejects a non-finite step.
"""

from __future__ import annotations

import json
import logging
import math
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import logsumexp

from .config import check_fields, from_dict, is_finite_real, is_integer
from .dataset import Dataset
from .errors import SfexplainError
from .explain import subset_key
from .seeding import derive_seed

logger = logging.getLogger(__name__)

_LOG_2PI = math.log(2.0 * math.pi)

# Ridge added to covariance diagonals every M-step, relative to the mean
# feature variance of the training sample.
RIDGE_SCALE = 1e-6

MODEL_FORMAT = "sfexplain-egmm"
MODEL_VERSION = 1


class DegenerateCluster(SfexplainError):
    """EM collapsed a component or lost monotonicity, even after retries."""


class MalformedModelFile(SfexplainError, ValueError):
    """A model file that is not JSON or does not follow the ensemble schema."""


class _DegenerateFit(Exception):
    """Internal: one EM attempt collapsed; retried with a fresh seed."""


# One component of a GmmModel, as read-only views into its arrays.
ComponentView = namedtuple("ComponentView", "weight mean covariance")


@dataclass(frozen=True, eq=False)
class GmmModel:
    """A single Gaussian mixture, stored as three read-only float64 arrays.

    weights (k,) each lie in (0, 1] and sum to one; means are (k, n) and
    covariances (k, n, n), each symmetric. em_log_likelihoods records the
    training log-likelihood after each EM iteration (non-decreasing); it is
    diagnostic only and not serialized. Mixtures, like ensembles, compare by
    identity: their arrays have no single truth value.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    em_log_likelihoods: tuple[float, ...] | None = None

    def __post_init__(self):
        weights, means, covs = (np.array(a, dtype=np.float64) for a in (self.weights, self.means, self.covariances))
        if weights.ndim != 1 or not weights.size:
            raise ValueError("a mixture needs at least one component")
        k = weights.size
        if means.ndim != 2 or means.shape[0] != k or covs.shape != (k, means.shape[1], means.shape[1]):
            raise ValueError(f"shapes {weights.shape}, {means.shape}, {covs.shape} are not (k,), (k, n), (k, n, n)")
        if not all(np.all(np.isfinite(a)) for a in (weights, means, covs)):
            raise ValueError("weights, means and covariances must be finite")
        if np.any(weights <= 0.0) or np.any(weights > 1.0):
            raise ValueError(f"weights must be in (0, 1], got {weights.tolist()}")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights must sum to 1, got {total}")
        scale = np.maximum(np.max(np.abs(covs), axis=(1, 2)), 1.0)
        if np.any(np.max(np.abs(covs - covs.transpose(0, 2, 1)), axis=(1, 2)) > 1e-9 * scale):
            raise ValueError("each covariance must be symmetric")
        for name, a in (("weights", weights), ("means", means), ("covariances", covs)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.means.shape[1]

    @property
    def components(self) -> tuple[ComponentView, ...]:
        """Each component's (weight, mean, covariance); the benchmark's checks read these."""
        return tuple(map(ComponentView, self.weights, self.means, self.covariances))


@dataclass(frozen=True)
class EgmmConfig:
    """Ensemble layout and EM controls."""

    members_per_k: int = 15
    component_counts: tuple[int, ...] = (3, 4, 5)
    retention_quantile: float = 0.10
    em_max_iters: int = 200
    em_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        # Before check_fields, whose message for a bool em_tol is less specific.
        iters_ok = is_integer(self.em_max_iters) and self.em_max_iters >= 1
        if not (iters_ok and is_finite_real(self.em_tol) and self.em_tol > 0.0):
            raise ValueError("em_max_iters must be a positive integer and em_tol finite and > 0")
        check_fields(self)
        try:
            given = tuple(self.component_counts)
        except TypeError:
            given = ()  # not a list: rejected below
        counts = tuple(map(int, given)) if all(map(is_integer, given)) else ()
        object.__setattr__(self, "component_counts", counts)
        if self.members_per_k < 1:
            raise ValueError("members_per_k must be positive")
        if not self.component_counts or any(k < 1 for k in self.component_counts):
            raise ValueError("component_counts must be a nonempty list of positive integers")
        if not 0.0 <= self.retention_quantile < 1.0:
            raise ValueError("retention_quantile must be in [0, 1)")


@dataclass(frozen=True, eq=False)
class EgmmModel:
    """Uniform mixture of retained mixtures, plus the input standardization.

    Members are fit in standardized coordinates (zero mean, unit variance per
    feature); queries transform the point and correct the density by the log
    Jacobian of the scaling, so returned values are densities over the
    original feature units. An identity transform (shift 0, scale 1) makes
    the ensemble query equal the member queries directly.
    """

    members: tuple[GmmModel, ...]
    shift: np.ndarray
    scale: np.ndarray
    config: EgmmConfig | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        shift = np.array(self.shift, dtype=np.float64)
        scale = np.array(self.scale, dtype=np.float64)
        if shift.ndim != 1 or scale.shape != shift.shape:
            raise ValueError("shift and scale must be vectors of one length")
        for m in self.members:
            if m.n != len(shift):
                raise ValueError("all members must share the ensemble dimensionality")
        if not (np.all(np.isfinite(shift)) and np.all(np.isfinite(scale))):
            raise ValueError("shift and scale must be finite")
        if np.any(scale <= 0):
            raise ValueError("scale entries must be positive")
        for name, a in (("shift", shift), ("scale", scale)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return len(self.shift)

    def log_marginal(self, x: np.ndarray, subset: Iterable[int]) -> float:
        return egmm_log_marginal(self, x, subset)


def identity_egmm(members: Sequence[GmmModel]) -> EgmmModel:
    """Wrap mixtures into an ensemble with no input standardization."""
    n = members[0].n
    return EgmmModel(members=tuple(members), shift=np.zeros(n), scale=np.ones(n))


@np.errstate(over="ignore")
def _component_log_likelihoods(
    X: np.ndarray, weights: Sequence[float], means: Sequence[np.ndarray], covs: Sequence[np.ndarray]
) -> np.ndarray:
    """(N, k) matrix of log(weight_c) + log N(x_i; mean_c, cov_c).

    Inputs must be finite. Raises LinAlgError if a covariance is not
    positive definite. A coordinate near 1e200 squares to inf, so its log
    density is -inf, which is right; that overflow is not warned about.
    """
    N, n = X.shape
    k = len(weights)
    out = np.empty((N, k))
    for c in range(k):
        chol, info = dpotrf(covs[c], lower=1, clean=1)
        if info != 0:
            raise LinAlgError(f"potrf failed with info={info}: covariance is not positive definite")
        solved, info = dtrtrs(chol, (X - means[c]).T, lower=1)
        if info != 0:
            raise LinAlgError(f"trtrs failed with info={info}: singular Cholesky factor")
        log_det_half = float(np.sum(np.log(np.diag(chol))))
        out[:, c] = (
            math.log(weights[c])
            - 0.5 * (n * _LOG_2PI + np.sum(solved * solved, axis=0))
            - log_det_half
        )
    return out


def _log_density(model: EgmmModel, X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Ensemble log joint-marginal density of each row of X (or of one point) on subset idx.

    Standardizes the subset's columns, slices each component's mean and
    covariance block, and combines the kernel's terms with log-sum-exp over
    components and then over members; the result is corrected by the
    standardization Jacobian, so it is a density over original feature units.
    Raises ValueError unless each row has the model's n features.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != model.n:
        raise ValueError(f"points must have the model's {model.n} features, got shape {X.shape}")
    Z = (X[:, idx] - model.shift[idx]) / model.scale[idx]
    if not np.all(np.isfinite(Z)):
        raise ValueError("query values must be finite on the queried features")
    member_vals = []
    for m in model.members:
        terms = _component_log_likelihoods(Z, m.weights, m.means[:, idx], m.covariances[:, idx[:, None], idx])
        member_vals.append(logsumexp(terms, axis=1))
    log_jacobian = float(np.sum(np.log(model.scale[idx])))
    return logsumexp(np.stack(member_vals), axis=0) - math.log(len(model.members)) - log_jacobian


def gmm_log_marginal(model: GmmModel, x: np.ndarray, subset: Iterable[int]) -> float:
    """Log joint-marginal density of x restricted to a feature subset.

    Each component marginalizes in closed form by slicing its mean and
    covariance block on the subset.
    """
    return float(_log_density(identity_egmm([model]), x, np.array(subset_key(subset, model.n)))[0])


def egmm_log_marginal(model: EgmmModel, x: np.ndarray, subset: Iterable[int]) -> float:
    """Log joint-marginal density under the uniform mixture of members.

    Combines member values with log-sum-exp and removes the standardization
    Jacobian so the result is a density over original feature units.
    """
    return float(_log_density(model, x, np.array(subset_key(subset, model.n)))[0])


def rank_points(model: EgmmModel, data: Dataset) -> np.ndarray:
    """Point indices sorted by ascending full-joint density, ties by index."""
    return _rank_by_score(_log_density(model, data.points, np.arange(model.n)))


def _rank_by_score(scores: np.ndarray) -> np.ndarray:
    return np.lexsort((np.arange(len(scores)), scores))


# ---------------------------------------------------------------------------
# EM fitting
# ---------------------------------------------------------------------------


def _nearest_center(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each row's nearest center, ties to the first; one center at a time, so O(N·n) memory."""
    assign = np.zeros(X.shape[0], dtype=np.intp)
    best = np.full(X.shape[0], np.inf)
    for c, center in enumerate(centers):
        d2 = np.sum((X - center) ** 2, axis=1)
        closer = d2 < best
        assign[closer] = c
        np.minimum(best, d2, out=best)
    return assign


def _kmeans_init(X: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeding followed by up to 10 Lloyd iterations.

    Returns the centers and each row's nearest center. The loop stops once an
    assignment repeats: the same masks give the same centers bit for bit, so
    every later iteration would change nothing.
    """
    N = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(N)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if not np.isfinite(total):
            raise _DegenerateFit("k-means++ squared distances overflow")
        if total > 0:
            probs = d2 / total
            pick = rng.choice(N, p=probs)
        else:
            pick = rng.integers(N)
        centers[c] = X[pick]
        d2 = np.minimum(d2, np.sum((X - centers[c]) ** 2, axis=1))

    assign = _nearest_center(X, centers)
    for _ in range(10):
        for c in range(k):
            mask = assign == c
            if mask.any():
                centers[c] = X[mask].mean(axis=0)
        previous, assign = assign, _nearest_center(X, centers)
        if np.array_equal(assign, previous):
            break
    return centers, assign


def _em_log_likelihoods(X: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """The kernel on EM's current parameters; a non-finite or non-SPD one fails the attempt."""
    if not all(np.all(np.isfinite(a)) for a in (weights, means, covs)):
        raise _DegenerateFit("EM reached non-finite parameters")
    try:
        return _component_log_likelihoods(X, weights, means, covs)
    except LinAlgError as exc:
        raise _DegenerateFit(str(exc)) from None


def _em_once(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    N, n = X.shape
    ridge = RIDGE_SCALE * float(np.mean(np.var(X, axis=0)))
    if ridge <= 0.0:
        raise _DegenerateFit("zero-variance training sample")
    ridge_eye = ridge * np.eye(n)

    centers, assign = _kmeans_init(X, k, rng)
    global_cov = np.cov(X, rowvar=False, ddof=0).reshape(n, n) + ridge_eye

    weights = np.empty(k)
    means = centers.copy()
    covs = np.empty((k, n, n))
    for c in range(k):
        mask = assign == c
        count = int(mask.sum())
        weights[c] = max(count, 1)
        if count >= 2:
            covs[c] = np.cov(X[mask], rowvar=False, ddof=0).reshape(n, n) + ridge_eye
        else:
            covs[c] = global_cov
    weights /= weights.sum()

    log_likelihoods: list[float] = []
    prev_ll = -np.inf
    for _ in range(max_iters):
        joint = _em_log_likelihoods(X, weights, means, covs)
        norms = logsumexp(joint, axis=1)
        ll = float(norms.sum())
        if log_likelihoods and ll < log_likelihoods[-1] - 1e-9 * max(1.0, abs(log_likelihoods[-1])):
            raise _DegenerateFit("EM step decreased the log-likelihood")
        log_likelihoods.append(ll)
        if ll - prev_ll < tol * max(abs(prev_ll), 1e-12) and np.isfinite(prev_ll):
            break
        prev_ll = ll

        resp = np.exp(joint - norms[:, None])
        mass = resp.sum(axis=0)
        if np.any(mass < 1e-10):
            raise _DegenerateFit("a component lost all responsibility mass")
        weights = mass / N
        means = (resp.T @ X) / mass[:, None]
        for c in range(k):
            diff = X - means[c]
            covs[c] = (resp[:, c, None] * diff).T @ diff / mass[c] + ridge_eye
            covs[c] = 0.5 * (covs[c] + covs[c].T)

    _em_log_likelihoods(X[:1], weights, means, covs)
    return weights, means, covs, log_likelihoods


def fit_gmm(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> GmmModel:
    """Fit a k-component mixture by EM.

    Initialization is k-means++ plus a short Lloyd refinement. A ridge
    proportional to the mean feature variance is added to every covariance
    each M-step. A fit that collapses a component, reaches non-finite
    parameters, or whose log-likelihood decreases (a near-singular component
    breaks EM's guarantee), is retried with a fresh derived seed up to 3 times
    before DegenerateCluster is raised.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"points must be 2D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")
    if X.shape[0] < k:
        raise ValueError(f"need at least k={k} points, got {X.shape[0]}")

    last_error = None
    for attempt in range(4):
        rng = np.random.default_rng(seed if attempt == 0 else derive_seed(seed, attempt))
        try:
            weights, means, covs, lls = _em_once(X, k, rng, max_iters, tol)
        except _DegenerateFit as exc:
            last_error = exc
            continue
        return GmmModel(weights, means, covs, em_log_likelihoods=tuple(lls))
    raise DegenerateCluster(f"EM collapsed on every attempt: {last_error}")


# ---------------------------------------------------------------------------
# Ensemble fitting
# ---------------------------------------------------------------------------


def egmm_fit(points: np.ndarray, config: EgmmConfig | None = None, workers: int = 1) -> EgmmModel:
    """Train the bootstrap ensemble and discard its weakest members.

    Each member fits on an independent N-draw bootstrap resample of the
    standardized data. Members are scored by mean per-point log-likelihood
    on the full (non-resampled) data; the lowest floor(quantile * M) scores
    are discarded. Member training order is fixed by index, so results do
    not depend on scheduling.
    """
    config = config or EgmmConfig()
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"points must be 2D, got shape {X.shape}")
    if X.shape[0] < max(config.component_counts):
        raise ValueError("need at least max(component_counts) points")

    shift = X.mean(axis=0)
    scale = X.std(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    Z = (X - shift) / scale

    ks = [k for k in config.component_counts for _ in range(config.members_per_k)]
    N = Z.shape[0]

    def train_member(index: int) -> GmmModel:
        boot_rng = np.random.default_rng(derive_seed(config.seed, index, 0))
        sample = Z[boot_rng.integers(0, N, size=N)]
        return fit_gmm(
            sample,
            ks[index],
            derive_seed(config.seed, index, 1),
            max_iters=config.em_max_iters,
            tol=config.em_tol,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            members = list(pool.map(train_member, range(len(ks))))
    else:
        members = [train_member(i) for i in range(len(ks))]

    terms = (_component_log_likelihoods(Z, m.weights, m.means, m.covariances) for m in members)
    scores = np.array([float(np.mean(logsumexp(t, axis=1))) for t in terms])
    n_discard = int(math.floor(config.retention_quantile * len(members)))
    threshold = np.sort(scores)[n_discard]
    retained = tuple(m for m, s in zip(members, scores) if s >= threshold)
    assert retained, "retention with quantile < 1 always keeps the best member"
    logger.info("retained %d of %d ensemble members", len(retained), len(members))

    return EgmmModel(members=retained, shift=shift, scale=scale, config=config)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def save_egmm(model: EgmmModel, path: str | Path) -> None:
    """Write the model as versioned JSON; floats round-trip exactly."""
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "n": model.n,
        "shift": model.shift.tolist(),
        "scale": model.scale.tolist(),
        "config": asdict(model.config) if model.config else None,
        "members": [
            {
                "components": [
                    {"weight": w, "mean": mean, "covariance": cov}
                    for w, mean, cov in zip(m.weights.tolist(), m.means.tolist(), m.covariances.tolist())
                ]
            }
            for m in model.members
        ],
    }
    with open(Path(path), "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _json_numbers(name: str, value, ndim: int) -> np.ndarray:
    """value, JSON numbers nested in ndim levels of lists, as float64;
    anything else, bools and strings included, raises TypeError naming name,
    and an integer past float64's range raises ValueError naming name."""

    def numeric(v, depth):
        if depth:
            return isinstance(v, list) and all(numeric(u, depth - 1) for u in v)
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if not numeric(value, ndim):
        shape = ("a JSON number", "a list of JSON numbers", "a list of lists of JSON numbers")[ndim]
        raise TypeError(f"{name} must be {shape}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError as exc:
        raise ValueError(f"{name} holds an integer outside float64's range") from exc


def load_egmm(path: str | Path) -> EgmmModel:
    """Read a model written by save_egmm; raise MalformedModelFile if it is not one."""
    try:
        with open(Path(path)) as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedModelFile(f"{path}: not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise MalformedModelFile(f"{path}: not an ensemble model file")
    if payload.get("version") != MODEL_VERSION:
        raise MalformedModelFile(f"{path}: unsupported model version {payload.get('version')}")
    try:
        n = payload["n"]
        if not is_integer(n):
            raise TypeError(f"n must be a JSON integer, got {json.dumps(n)}")
        members = tuple(
            GmmModel(
                *(
                    np.array([_json_numbers(name, comp[name], depth) for comp in member["components"]])
                    for name, depth in (("weight", 0), ("mean", 1), ("covariance", 2))
                )
            )
            for member in payload["members"]
        )
        if any(m.n != n for m in members):
            raise ValueError(f"every member must have the file's n={n} features")
        for member in members:
            np.linalg.cholesky(member.covariances)  # LinAlgError unless each is positive definite
        config = from_dict(EgmmConfig, payload["config"]) if payload.get("config") else None
        return EgmmModel(
            members=members,
            shift=_json_numbers("shift", payload["shift"], 1),
            scale=_json_numbers("scale", payload["scale"], 1),
            config=config,
        )
    except (KeyError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
        raise MalformedModelFile(f"{path}: malformed model file: {exc!r}") from exc
