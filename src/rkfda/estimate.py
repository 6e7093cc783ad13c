"""Sample estimators: class means, their difference, pooled covariance.

The pooled covariance at points (t_1, ..., t_d) is the SUM of the two
per-class covariance estimates with divisor n_r,

    C(i, j) = sum_{r in {0,1}} (1/n_r) sum_l (X_rl(t_i) - Xbar_r(t_i)) (X_rl(t_j) - Xbar_r(t_j)),

i.e. twice the balanced pooled estimate.  The constant factor is kept
deliberately: the Mahalanobis selection score's argmax and the equal-prior
linear rule's sign are both invariant to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Grid, LabeledDataset, TrainingError, _frozen_array

__all__ = ["ClassMoments", "class_moments", "pooled_cov", "centred_curves"]


@dataclass(frozen=True, eq=False)
class ClassMoments:
    """Pointwise class means on the full grid and their difference m1 - m0."""

    grid: Grid
    m0: np.ndarray
    m1: np.ndarray
    diff: np.ndarray
    n0: int
    n1: int

    def __post_init__(self):
        for name in ("m0", "m1", "diff"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    def diff_at(self, indices) -> np.ndarray:
        return self.diff[np.asarray(indices, dtype=int)]

    def midpoint_at(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        return (self.m0[idx] + self.m1[idx]) / 2.0


def class_moments(dataset: LabeledDataset) -> ClassMoments:
    """Per-class pointwise sample means and their difference."""
    x0 = dataset.class_curves(0)
    x1 = dataset.class_curves(1)
    if x0.shape[0] == 0 or x1.shape[0] == 0:
        raise TrainingError("both classes must be present")
    m0 = x0.mean(axis=0)
    m1 = x1.mean(axis=0)
    return ClassMoments(
        grid=dataset.grid, m0=m0, m1=m1, diff=m1 - m0, n0=x0.shape[0], n1=x1.shape[0]
    )


def pooled_cov(dataset: LabeledDataset, points=None) -> np.ndarray:
    """Pooled class covariance matrix at the given grid times.

    ``points`` defaults to the whole grid.  Requires at least two samples
    per class; the result is symmetric positive semidefinite.
    """
    if points is None:
        idx = np.arange(dataset.grid.count)
    else:
        idx = dataset.grid.indices_of(points)
    cov = np.zeros((idx.size, idx.size))
    for label in (0, 1):
        x = dataset.class_curves(label)[:, idx]
        n = x.shape[0]
        if n < 2:
            raise TrainingError(f"class {label} needs at least 2 samples for covariance")
        xc = x - x.mean(axis=0)
        cov += xc.T @ xc / n
    return (cov + cov.T) / 2.0


def centred_curves(dataset: LabeledDataset) -> np.ndarray:
    """Class-centred curves Z, scaled so that ``Z.T @ Z`` is the pooled covariance.

    Row l of class r is (X_rl - Xbar_r) / sqrt(n_r), so one pooled covariance
    column costs O(n * G) without forming the G x G matrix.  Requires at
    least two samples per class, like :func:`pooled_cov`.
    """
    moments = class_moments(dataset)
    blocks = []
    for label, mean, n in ((0, moments.m0, moments.n0), (1, moments.m1, moments.n1)):
        if n < 2:
            raise TrainingError(f"class {label} needs at least 2 samples for covariance")
        blocks.append((dataset.class_curves(label) - mean) / np.sqrt(n))
    return np.vstack(blocks)
