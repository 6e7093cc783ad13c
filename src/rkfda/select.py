"""Greedy variable selection maximizing the squared Mahalanobis separation.

At each step the search adds the admissible grid time that maximizes

    psi_hat(t_1, ..., t_k) = mhat^T Chat^{-1} mhat

over candidates at least ``delta`` away from every point already chosen,
where mhat is the estimated class mean difference at the points and Chat is
either the pooled sample covariance (empirical mode) or an analytic kernel
Gram (oracle mode).  The first step reduces to maximizing the pointwise
signal-to-noise ratio mhat(t)^2 / var_hat(t).

The scan scores every candidate at once with the forward-regression update
(Chen, Billings & Luo 1989)

    psi(S + {i}) = psi(S) + e_i^2 / s_i,

where s_i = K_ii - k_iS K_SS^{-1} k_Si is the Schur complement of the chosen
set S and e_i = m_i - k_iS K_SS^{-1} m_S the residual mean difference.  Both
are kept up to date through one growing Cholesky factor of K_SS, so a step
costs O(d * G) and reads a single covariance column.  The result carries
that factor, from which ``classify.rkc_decisions`` scores the linear rule on
every prefix of the selection without refitting.

Degeneracy rule: a candidate is inadmissible while s_i <= 1e-12 * K_ii, that
is when its variance is zero (e.g. a pinned endpoint) or it is numerically a
linear combination of the chosen points (e.g. a duplicate of one of them).
This is the pivot rule of ``kernels.solve_spd``, whose ``DEGENERATE_RTOL``
both share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GRID_SPACING_RTOL, Grid, LabeledDataset, SelectionResult, TrainingError
# class_moments, pooled_cov, gram and mahalanobis_psi are unused here but stay
# importable from this module, where perfbench/tracing.py wraps them.
from .estimate import class_moments, pooled_cov  # noqa: F401
from .kernels import DEGENERATE_RTOL, KernelSpec, gram, mahalanobis_psi  # noqa: F401

__all__ = [
    "SelectionConfig",
    "OracleSource",
    "oracle_source",
    "oracle_source_from_dataset",
    "greedy_select",
]


@dataclass(frozen=True, eq=False)
class SelectionConfig:
    """Knobs of the greedy search.

    ``delta`` is the minimum time separation between selected points and
    defaults to one grid step, the smallest value that keeps grid points
    distinct.  It is counted in grid steps: two points are far enough apart
    when their indices differ by ``ceil(delta / spacing - GRID_SPACING_RTOL)``
    or more, so on a grid offset from 0, where the times round to as much as
    a few 1e-10 of a step apart, adjacent points still count as one step
    apart.  ``candidate_mask`` restricts the search to a subset of grid
    indices (useful to exclude degenerate endpoints).  The search stops at
    ``d_max`` points or when the best candidate improves the score by less
    than ``rel_tol`` relative to its current level.  Candidates with
    degenerate variance given the chosen points (Schur complement at most
    ``DEGENERATE_RTOL`` times their own variance) are never selected.
    """

    d_max: int
    delta: float | None = None
    candidate_mask: np.ndarray | None = None
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        if self.delta is not None and self.delta <= 0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True, eq=False)
class OracleSource:
    """Selection inputs when the covariance (and possibly the mean) is known.

    ``mean_diff`` holds the class mean difference m1 - m0 on the grid; use
    :func:`oracle_source_from_dataset` to estimate it from data while keeping
    the analytic covariance.
    """

    kernel: KernelSpec
    grid: Grid
    mean_diff: np.ndarray


def oracle_source(kernel: KernelSpec, grid: Grid, mean_diff) -> OracleSource:
    if callable(mean_diff):
        values = np.asarray([mean_diff(t) for t in grid.points], dtype=float)
    else:
        values = np.asarray(mean_diff, dtype=float)
    if values.shape != (grid.count,):
        raise ValueError("mean_diff must provide one value per grid point")
    return OracleSource(kernel=kernel, grid=grid, mean_diff=values)


def oracle_source_from_dataset(dataset: LabeledDataset, kernel: KernelSpec) -> OracleSource:
    """Analytic covariance with the mean difference estimated from the sample."""
    return oracle_source(kernel, dataset.grid, dataset.moments.diff)


def _kernel_diag(kernel: KernelSpec, points: np.ndarray, block: int = 64) -> np.ndarray:
    """K(t, t) at every point, read off small diagonal blocks of the Gram."""
    chunks = np.array_split(points, -(-points.size // block))
    return np.concatenate([np.diag(kernel.pairwise(c, c)) for c in chunks])


def _scan_inputs(source):
    """Grid, mean difference, variances and a covariance-column function.

    Neither source forms the G x G covariance: the scan reads only the
    columns of the points it picks.
    """
    if isinstance(source, OracleSource):
        pts = source.grid.points
        kernel = source.kernel
        return (
            source.grid,
            source.mean_diff,
            _kernel_diag(kernel, pts),
            lambda j: kernel.pairwise(pts, pts[j : j + 1])[:, 0],
        )
    if isinstance(source, LabeledDataset):
        moments = source.moments
        moments.require_covariance()
        z = moments.z
        return (
            source.grid,
            moments.diff,
            np.einsum("ij,ij->j", z, z),
            lambda j: z.T @ z[:, j],
        )
    raise TypeError("source must be a LabeledDataset or an OracleSource")


def greedy_select(source, config: SelectionConfig) -> SelectionResult:
    """Forward selection of grid times, one per step, in selection order.

    Ties in the score go to the smallest time.  Raises TrainingError when no
    admissible candidate exists at the first step; later steps simply stop.
    """
    grid, mean, var, column = _scan_inputs(source)
    if config.candidate_mask is not None:
        candidates = np.asarray(config.candidate_mask, dtype=int)
        if candidates.size == 0 or candidates.min() < 0 or candidates.max() >= grid.count:
            raise ValueError("candidate_mask must hold valid grid indices")
        candidates = np.unique(candidates)
    else:
        candidates = np.arange(grid.count)
    delta = grid.spacing if config.delta is None else float(config.delta)
    if delta < grid.spacing * (1.0 - GRID_SPACING_RTOL):
        raise ValueError("delta must be at least one grid step")
    # points this many indices apart or more are delta-separated
    sep_steps = math.ceil(delta / grid.spacing - GRID_SPACING_RTOL)

    allowed = np.zeros(grid.count, dtype=bool)  # in the mask and delta-separated
    allowed[candidates] = True
    floor = DEGENERATE_RTOL * var
    schur = var.copy()  # s_i
    resid = np.array(mean, dtype=float)  # e_i
    # rows[:k] = L^{-1} K[S, :], with L the lower Cholesky factor of K_SS, so
    # rows[:k, S] = L^T and k_iS K_SS^{-1} k_Si = |rows[:k, i]|^2.
    rows = np.empty((config.d_max, grid.count))
    chosen: list[int] = []
    trace: list[float] = []
    psi = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(config.d_max):
            admissible = allowed & (schur > floor)
            if not admissible.any():
                if step == 0:
                    raise TrainingError("no admissible candidate point at the first step")
                break
            gain = np.where(admissible, resid * resid / schur, -np.inf)
            j = int(np.argmax(gain))
            if step > 0 and gain[j] < config.rel_tol * max(psi, 1.0):
                break
            pivot = np.sqrt(schur[j])
            v = rows[step]
            v[:] = column(j)
            v -= rows[:step].T @ rows[:step, j]
            v /= pivot
            w = resid[j] / pivot
            resid -= w * v
            schur -= v * v
            psi += w * w
            chosen.append(j)
            trace.append(psi)
            allowed[max(0, j - sep_steps + 1) : j + sep_steps] = False
    d = len(chosen)
    return SelectionResult(
        points=grid.points[chosen],
        indices=np.array(chosen, dtype=int),
        psi_trace=trace,
        factor=np.tril(rows[:d, chosen].T),
    )
