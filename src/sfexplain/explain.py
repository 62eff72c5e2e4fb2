"""Sequential feature explanations computed from subset-marginal density queries.

Every method consumes a density oracle, an object answering
``log_marginal(x, subset)`` for any nonempty feature subset, and emits an
ordered list of feature indices with per-step objective values. Marginal
methods pick features that make the point look most anomalous on its own;
dropout methods pick features whose removal makes the point look most normal.

All objectives are evaluated in log space, which preserves every argmin and
argmax. The independent-dropout scores are density differences, so those are
rescaled back out of log space with a shared max subtraction before the sign
of the difference matters.

Every method keeps the first best candidate, in ascending index order: the
greedy steps take ``min`` or ``max`` over (candidate, score) pairs, and the
independent methods sort by (score, index). A log density of -inf is a valid
score and ties like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from .seeding import TAG_RANDOM_SFE, derive_seed


class Method(str, Enum):
    """Every method the protocol scores, in reporting order."""

    IND_MARG = "indmarg"
    SEQ_MARG = "seqmarg"
    IND_DO = "inddo"
    SEQ_DO = "seqdo"
    RANDOM = "random"
    OPT_ORACLE = "optoracle"


class DensityOracle(Protocol):
    """Anything that can score a point on an arbitrary feature subset."""

    def log_marginal(self, x: np.ndarray, subset: Sequence[int]) -> float: ...


def subset_key(subset: Iterable[int], n: int) -> tuple[int, ...]:
    """The canonical form of a feature subset of n features: its distinct
    indices in ascending order.

    Every subset query, density or analyst, goes through this one rule.
    Raises ValueError for an empty subset or an index outside [0, n).
    """
    key = tuple(sorted({int(j) for j in subset}))
    if not key or key[0] < 0 or key[-1] >= n:
        raise ValueError(f"feature indices must lie in [0, {n}), got {list(key)}")
    return key


@dataclass(frozen=True)
class Sfe:
    """An explanation: distinct feature indices, most important first."""

    order: tuple[int, ...]
    step_scores: tuple[float, ...]
    method: Method

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        scores = tuple(float(s) for s in self.step_scores)
        if len(set(order)) != len(order):
            raise ValueError("explanation order must not repeat features")
        if any(i < 0 for i in order):
            raise ValueError("feature indices must be nonnegative")
        if len(scores) != len(order):
            raise ValueError("step_scores must match the order length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step_scores", scores)

    def __len__(self) -> int:
        return len(self.order)

    def csv_row(self, point_index: int) -> list[str]:
        return [
            str(point_index),
            self.method.value,
            ";".join(str(i) for i in self.order),
            ";".join(repr(s) for s in self.step_scores),
        ]


def check_length(n: int, k: int | None) -> int:
    """The explanation length for n features: k, or n when k is None.
    Raises ValueError unless 1 <= k <= n."""
    if k is None:
        k = n
    if not 1 <= k <= n:
        raise ValueError(f"explanation length must be in [1, {n}], got {k}")
    return k


def explain_ind_marg(f: DensityOracle, x: np.ndarray, k: int | None = None) -> Sfe:
    """Order features by ascending singleton marginal density.

    Uses exactly n singleton queries; ties break toward the lower index.
    """
    n = len(x)
    k = check_length(n, k)
    values = [f.log_marginal(x, (j,)) for j in range(n)]
    order = sorted(range(n), key=lambda j: (values[j], j))[:k]
    return Sfe(order=tuple(order), step_scores=tuple(values[j] for j in order), method=Method.IND_MARG)


def explain_seq_marg(f: DensityOracle, x: np.ndarray, k: int | None = None) -> Sfe:
    """Greedily grow the subset that minimizes the joint marginal density.

    Step i picks the remaining feature whose addition to the current prefix
    gives the smallest joint marginal; ties break toward the lower index.
    """
    n = len(x)
    k = check_length(n, k)
    chosen: list[int] = []
    scores: list[float] = []
    for _ in range(k):
        scored = ((j, f.log_marginal(x, (*chosen, j))) for j in range(n) if j not in chosen)
        j, score = min(scored, key=itemgetter(1))
        chosen.append(j)
        scores.append(score)
    return Sfe(order=tuple(chosen), step_scores=tuple(scores), method=Method.SEQ_MARG)


def explain_ind_do(f: DensityOracle, x: np.ndarray, k: int | None = None) -> Sfe:
    """Order features by how much more normal the point looks without them.

    Each feature's score is the density of the point with that one feature
    removed minus the full-joint density, computed in density space. A shared
    max subtraction keeps the differences comparable when all densities
    underflow; the stored scores are the rescaled real differences. When
    every log density is -inf, every score is 0.0.
    """
    n = len(x)
    if n < 2:
        raise ValueError("dropout needs at least 2 features")
    k = check_length(n, k)
    full = f.log_marginal(x, tuple(range(n)))
    dropped = [f.log_marginal(x, tuple(t for t in range(n) if t != j)) for j in range(n)]
    anchor = max(dropped + [full])
    if anchor == -math.inf:
        anchor = 0.0  # every density is 0.0, so every score is 0.0
    scaled = [math.exp(a - anchor) - math.exp(full - anchor) for a in dropped]
    rescale = math.exp(anchor)
    order = sorted(range(n), key=lambda j: (-scaled[j], j))[:k]
    return Sfe(
        order=tuple(order),
        step_scores=tuple(scaled[j] * rescale for j in order),
        method=Method.IND_DO,
    )


def explain_seq_do(f: DensityOracle, x: np.ndarray, k: int | None = None) -> Sfe:
    """Greedily remove the feature set whose absence looks most normal.

    Step i picks the remaining feature j maximizing the density of the
    complement of the removed set plus j. When k = n the final step would
    query an empty subset, so the last feature is appended by elimination
    with a NaN step score instead.
    """
    n = len(x)
    if n < 2:
        raise ValueError("dropout needs at least 2 features")
    k = check_length(n, k)
    chosen: list[int] = []
    scores: list[float] = []
    remaining = list(range(n))
    for _ in range(min(k, n - 1)):
        scored = ((j, f.log_marginal(x, tuple(t for t in remaining if t != j))) for j in remaining)
        j, score = max(scored, key=itemgetter(1))
        chosen.append(j)
        scores.append(score)
        remaining.remove(j)
    if k == n:
        chosen.append(remaining[0])
        scores.append(math.nan)
    return Sfe(order=tuple(chosen), step_scores=tuple(scores), method=Method.SEQ_DO)


def explain_random(n: int, k: int | None = None, seed: int = 0) -> Sfe:
    """A uniformly random k-prefix of a random feature permutation."""
    k = check_length(n, k)
    order = np.random.default_rng(seed).permutation(n)[:k]
    return Sfe(order=tuple(int(j) for j in order), step_scores=(0.0,) * k, method=Method.RANDOM)


def density_explainers() -> dict[Method, Callable[..., Sfe]]:
    """Each method computable from a density oracle, mapped to its explainer
    ``(f, x, k) -> Sfe``.

    The table is built on every call from the module-level names, so a
    wrapper installed on one of them (a profiler, say) sees every call.
    """
    return {
        Method.IND_MARG: explain_ind_marg,
        Method.SEQ_MARG: explain_seq_marg,
        Method.IND_DO: explain_ind_do,
        Method.SEQ_DO: explain_seq_do,
    }


def explain_point(
    f: DensityOracle, x: np.ndarray, method: Method, k: int | None, seed: int, point: int, repeats: int = 1
) -> list[Sfe]:
    """A method's explanations of x, the point numbered ``point``: one from a
    density method, or ``repeats`` random orderings, repeat r seeded
    ``derive_seed(seed, TAG_RANDOM_SFE, point, r)``. ``optoracle`` forms no
    SFE (its best subsets need not be nested), so it raises KeyError.
    """
    if method is Method.RANDOM:
        return [
            explain_random(len(x), k, seed=derive_seed(seed, TAG_RANDOM_SFE, point, r))
            for r in range(repeats)
        ]
    return [density_explainers()[method](f, x, k)]
