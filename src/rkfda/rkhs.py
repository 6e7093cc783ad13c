"""Finite kernel expansions, the optimal linear discriminant, and its error.

A mean difference of the form m(.) = sum_i alpha_i K(., t_i) turns the
functional discrimination problem into an exact d-variate Gaussian one.  The
optimal score for a trajectory x is then

    score(x) = sum_i alpha_i * (x(t_i) - (m0(t_i) + m1(t_i)) / 2) - log((1-p)/p)

with label 1 assigned iff score > 0, and its misclassification probability has
a closed form in the kernel norm h = ||m||_K:

    L = (1-p) * Phi(-h/2 - log((1-p)/p)/h) + p * Phi(-h/2 + log((1-p)/p)/h)

which reduces to 1 - Phi(h/2) for p = 1/2.  Means that are not finite
expansions are handled by projecting them onto the span of K(., t_i) at grid
points, which is dense in the kernel's native space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _frozen_array
from .kernels import EigenSystem, KernelSpec, gram, solve_spd

__all__ = [
    "FiniteExpansionMean",
    "finite_expansion_from_values",
    "alphas_from_mean",
    "rkhs_norm_sq",
    "bayes_discriminant",
    "bayes_error",
    "gaussian_cdf",
    "TruncatedProblem",
    "truncation_sequence",
]


def gaussian_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class FiniteExpansionMean:
    """Mean difference m(.) = sum_i alphas[i] * K(., points[i])."""

    kernel: KernelSpec
    points: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        al = _frozen_array(self.alphas)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("expansion needs at least one point")
        if al.shape != pts.shape:
            raise ValueError("alphas must align with points")
        if np.unique(pts).size != pts.size:
            raise ValueError("expansion points must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "alphas", al)

    def __call__(self, t) -> np.ndarray:
        """Evaluate the expansion at times ``t``."""
        tt = np.atleast_1d(np.asarray(t, dtype=float))
        return self.kernel.pairwise(tt, self.points) @ self.alphas

    def gram(self) -> np.ndarray:
        return gram(self.kernel, self.points)


def alphas_from_mean(mean_vec, gram_matrix) -> np.ndarray:
    """Expansion coefficients alpha solving K alpha = m at the chosen points.

    Raises SingularMatrixError when K is numerically singular (see
    :func:`~rkfda.kernels.solve_spd`).
    """
    return solve_spd(gram_matrix, np.asarray(mean_vec, dtype=float))


def finite_expansion_from_values(kernel: KernelSpec, points, mean_values) -> FiniteExpansionMean:
    """Expansion through the given (point, value) pairs of a mean difference."""
    pts = np.asarray(points, dtype=float)
    alphas = alphas_from_mean(mean_values, gram(kernel, pts))
    return FiniteExpansionMean(kernel=kernel, points=pts, alphas=alphas)


def rkhs_norm_sq(mean: FiniteExpansionMean) -> float:
    """Squared kernel norm alpha^T K alpha of a finite expansion."""
    k = mean.gram()
    return max(float(mean.alphas @ k @ mean.alphas), 0.0)


def bayes_discriminant(
    x_at_points,
    mean: FiniteExpansionMean,
    m0_at_points,
    m1_at_points,
    p: float,
) -> float:
    """Optimal discriminant score of x observed at the expansion points.

    Positive score means label 1; the caller resolves a tie at exactly 0 as
    label 0 (a probability-zero event under the Gaussian model).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prior must lie in (0, 1)")
    x = np.asarray(x_at_points, dtype=float)
    m0 = np.asarray(m0_at_points, dtype=float)
    m1 = np.asarray(m1_at_points, dtype=float)
    d = mean.points.size
    if not x.shape == m0.shape == m1.shape == (d,):
        raise ValueError("x, m0, m1 must all have one value per expansion point")
    return float(mean.alphas @ (x - (m0 + m1) / 2.0) - math.log((1.0 - p) / p))


def bayes_error(norm_k: float, p: float) -> float:
    """Minimal misclassification probability for kernel-norm separation ``norm_k``.

    Strictly decreasing in ``norm_k`` with values in (0, min(p, 1-p)); the
    norm_k -> 0 limit is 1/2 at p = 1/2 but a nonpositive norm is rejected
    rather than mapped to that limit.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("prior must lie in (0, 1)")
    if not norm_k > 0.0:
        raise ValueError("kernel norm must be positive")
    b = math.log((1.0 - p) / p)
    return (1.0 - p) * gaussian_cdf(-norm_k / 2.0 - b / norm_k) + p * gaussian_cdf(
        -norm_k / 2.0 + b / norm_k
    )


@dataclass(frozen=True)
class TruncatedProblem:
    """Separation and optimal error of the rank-r truncated problem."""

    r: int
    norm_sq: float
    bayes_error: float


def truncation_sequence(
    mu, eigen: EigenSystem | np.ndarray, r_max: int
) -> list[TruncatedProblem]:
    """Truncated separations sum_{j<=r} mu_j^2/theta_j for r = 1..r_max.

    Each entry pairs the accumulated squared kernel norm with the optimal
    error at prior 1/2.  The sequence is nondecreasing in norm and
    nonincreasing in error; it diverges (error -> 0) exactly when the full
    series does, which is the classifiable-in-the-limit regime.
    """
    thetas = eigen.eigenvalues if isinstance(eigen, EigenSystem) else np.asarray(eigen, float)
    mu = np.asarray(mu, dtype=float)
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    if r_max > min(mu.size, thetas.size):
        raise ValueError("r_max exceeds the available eigenpairs")
    if np.any(thetas[:r_max] <= 0.0):
        raise ValueError("all eigenvalues through r_max must be positive")
    norm_sq = np.cumsum(mu[:r_max] ** 2 / thetas[:r_max])
    if norm_sq[0] <= 0.0:
        raise ValueError("zero mean difference: truncated error is undefined")
    return [
        TruncatedProblem(r=r, norm_sq=float(h2), bayes_error=bayes_error(math.sqrt(h2), 0.5))
        for r, h2 in enumerate(norm_sq, start=1)
    ]
