"""Covariance kernels, Gram matrices, SPD solves, eigensystems.

The analytic kernels are the classical ones for the processes simulated in
this package:

    Brownian motion          K(s, t) = min(s, t)
    Brownian bridge on [0,T] K(s, t) = min(s, t) - s*t/T
    Ornstein-Uhlenbeck       K(s, t) = sigma2 * exp(-theta * |s - t|)

Solves against covariance matrices route through :func:`solve_spd`: one
Cholesky factorization, and no ridge.  A matrix is numerically singular when
the factorization fails or a pivot falls to ``DEGENERATE_RTOL`` of its
diagonal entry, ``L_kk^2 <= DEGENERATE_RTOL * A_kk``: the Schur complement of
point k given the points before it is rounding noise next to its variance.
The greedy scan in :mod:`rkfda.select` skips a candidate by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg

from .core import Grid, SingularMatrixError, _frozen_array

__all__ = [
    "BrownianKernel",
    "BrownianBridgeKernel",
    "OrnsteinUhlenbeckKernel",
    "KernelSpec",
    "kernel_eval",
    "gram",
    "DEGENERATE_RTOL",
    "solve_spd",
    "mahalanobis_psi",
    "EigenSystem",
    "discretized_eigen",
]


@dataclass(frozen=True)
class BrownianKernel:
    """Standard Brownian motion covariance min(s, t)."""

    def pairwise(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.minimum(s[:, None], t[None, :])


@dataclass(frozen=True)
class BrownianBridgeKernel:
    """Brownian bridge pinned to zero at 0 and at ``t_max``."""

    t_max: float = 1.0

    def pairwise(self, s, t):
        return np.minimum(s[:, None], t[None, :]) - s[:, None] * t[None, :] / self.t_max


@dataclass(frozen=True)
class OrnsteinUhlenbeckKernel:
    """Stationary Ornstein-Uhlenbeck covariance sigma2 * exp(-theta*|s-t|)."""

    theta: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.theta <= 0 or self.sigma2 <= 0:
            raise ValueError("theta and sigma2 must be positive")

    def pairwise(self, s, t):
        return self.sigma2 * np.exp(-self.theta * np.abs(s[:, None] - t[None, :]))


KernelSpec = Union[BrownianKernel, BrownianBridgeKernel, OrnsteinUhlenbeckKernel]


def kernel_eval(spec: KernelSpec, s: float, t: float) -> float:
    """Covariance value K(s, t)."""
    return float(spec.pairwise(np.atleast_1d(float(s)), np.atleast_1d(float(t)))[0, 0])


def gram(spec: KernelSpec, points) -> np.ndarray:
    """Covariance matrix with entry (i, j) = K(points[i], points[j]).

    Points must be distinct; the result is symmetrized to machine precision.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.ndim != 1 or pts.size == 0:
        raise ValueError("points must be a nonempty 1-d sequence")
    if np.unique(pts).size != pts.size:
        raise ValueError("points must be distinct")
    k = spec.pairwise(pts, pts)
    return (k + k.T) / 2.0


# A covariance is numerically singular once a pivot's square, the Schur
# complement of its point given the points before it, is at most this
# fraction of the point's own variance.
DEGENERATE_RTOL = 1e-12


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix @ x = rhs for a symmetric positive definite matrix.

    One Cholesky factorization, no ridge.  Raises SingularMatrixError when
    the factorization fails or any pivot has
    ``L_kk^2 <= DEGENERATE_RTOL * A_kk``.
    """
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise ValueError("rhs length must match matrix")
    d = a.shape[0]
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        factor = None
    # "not above" rather than "at most", so that a NaN pivot counts as degenerate
    if factor is None or not np.all(np.diag(factor[0]) ** 2 > DEGENERATE_RTOL * np.diag(a)):
        raise SingularMatrixError(f"covariance matrix of order {d} is numerically singular")
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def mahalanobis_psi(mean_vec, gram_matrix) -> float:
    """Squared Mahalanobis separation m^T K^{-1} m; nonnegative.

    Propagates SingularMatrixError from :func:`solve_spd`.
    """
    m = np.asarray(mean_vec, dtype=float)
    return max(float(m @ solve_spd(gram_matrix, m)), 0.0)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Discretized eigendecomposition of a covariance function on a grid.

    ``eigenvalues`` are sorted in nonincreasing order, clipped at zero.
    ``eigenfunctions[j]`` is the j-th eigenfunction sampled on the grid;
    the family is orthonormal under the quadrature weight ``grid.spacing``.
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen_array(self.eigenvalues))
        object.__setattr__(self, "eigenfunctions", _frozen_array(self.eigenfunctions))

    def truncated_kernel(self, order: int) -> np.ndarray:
        """Rank-``order`` reconstruction sum_{j<order} theta_j phi_j phi_j^T."""
        lam = self.eigenvalues[:order]
        v = self.eigenfunctions[:order]
        return (v.T * lam) @ v


def discretized_eigen(spec: KernelSpec, grid: Grid) -> EigenSystem:
    """Eigensystem of the covariance operator discretized on ``grid``.

    The integral operator is approximated by the Gram matrix scaled by the
    grid spacing; eigenvectors are rescaled by 1/sqrt(spacing) so that the
    eigenfunctions are orthonormal under quadrature.  Signs are fixed so
    each eigenfunction is positive at its first nonnegligible grid entry.
    """
    dt = grid.spacing
    k = gram(spec, grid.points) * dt
    w, v = scipy.linalg.eigh(k, check_finite=False)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    phi = v[:, order].T / np.sqrt(dt)
    for row in phi:
        nz = np.nonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return EigenSystem(grid=grid, eigenvalues=w, eigenfunctions=phi)
