"""Sample estimators: class means, their difference, pooled covariance.

The pooled covariance at points (t_1, ..., t_d) is the SUM of the two
per-class covariance estimates with divisor n_r,

    C(i, j) = sum_{r in {0,1}} (1/n_r) sum_l (X_rl(t_i) - Xbar_r(t_i)) (X_rl(t_j) - Xbar_r(t_j)),

i.e. twice the balanced pooled estimate.  The constant factor is kept
deliberately: the Mahalanobis selection score's argmax and the equal-prior
linear rule's sign are both invariant to it.

The class means and centred curves are ``LabeledDataset.moments``, which
``select`` and ``classify`` read directly, computed once per dataset object
and kept; from Python 3.12 two threads may both compute it, which is
harmless because the values are equal.
"""

from __future__ import annotations

import numpy as np

from .core import ClassMoments, LabeledDataset, TrainingError

__all__ = ["ClassMoments", "class_moments", "pooled_cov"]


def class_moments(dataset: LabeledDataset) -> ClassMoments:
    """Per-class pointwise sample means and their difference: ``dataset.moments``."""
    return dataset.moments


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

