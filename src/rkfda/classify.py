"""Classifiers: the linear rule on selected points, kNN, and the centroid rule.

``RKCClassifier`` is Fisher's linear rule on the values of a curve at a small
set of selected times, with coefficients alpha = Chat^{-1} mhat from the
pooled covariance and estimated mean difference; its score is

    alpha . (x(points) - midpoint) - log((1-p)/p)

and coincides with the optimal discriminant when the true mean difference is
a finite kernel expansion at those points.  ``KNNClassifier`` votes among the
k nearest training curves in the quadrature-scaled Euclidean metric.
``CentroidClassifier`` projects a curve onto a truncated eigenbasis contrast
and assigns the class whose projected centroid is closer.

Score ties resolve to label 0 everywhere, which keeps decisions deterministic
for tests; under the continuous models a tie has probability zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.linalg
import scipy.spatial.distance

from .core import Grid, LabeledDataset, SingularMatrixError, TrainingError, _frozen_array, class_prior
from .estimate import centred_curves, class_moments, pooled_cov
# discretized_eigen is unused here but stays importable from this module,
# where perfbench/tracing.py wraps it.
from .kernels import DEFAULT_RIDGE, KernelSpec, RidgePolicy, discretized_eigen, gram, solve_spd  # noqa: F401

__all__ = [
    "RKCClassifier",
    "KNNClassifier",
    "CentroidClassifier",
    "TrainedClassifier",
    "train_rkc",
    "train_knn",
    "train_centroid",
    "centroid_classifiers",
    "classify",
    "classify_batch",
    "error_rate",
]


@dataclass(frozen=True, eq=False)
class RKCClassifier:
    """Linear rule on selected grid times."""

    grid: Grid
    indices: np.ndarray
    alphas: np.ndarray
    midpoint: np.ndarray
    log_prior_odds: float

    def __post_init__(self):
        for name in ("indices", "alphas", "midpoint"):
            dtype = int if name == "indices" else float
            object.__setattr__(self, name, _frozen_array(getattr(self, name), dtype=dtype))

    @property
    def points(self) -> np.ndarray:
        return self.grid.points[self.indices]

    def scores(self, curves: np.ndarray) -> np.ndarray:
        x = curves[:, self.indices]
        return (x - self.midpoint) @ self.alphas - self.log_prior_odds

    def decide(self, curves: np.ndarray) -> np.ndarray:
        return (self.scores(curves) > 0.0).astype(int)


@dataclass(frozen=True, eq=False)
class KNNClassifier:
    """k-nearest-neighbour vote in the sqrt(dt)-scaled Euclidean metric."""

    grid: Grid
    train_curves: np.ndarray
    train_labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "train_curves", _frozen_array(self.train_curves))
        object.__setattr__(self, "train_labels", _frozen_array(self.train_labels, dtype=int))
        n = self.train_curves.shape[0]
        if not 1 <= self.k <= n:
            raise ValueError("k must lie in [1, n]")

    def decide(self, curves: np.ndarray) -> np.ndarray:
        scale = math.sqrt(self.grid.spacing)
        dist = scipy.spatial.distance.cdist(curves * scale, self.train_curves * scale)
        neighbours = np.argpartition(dist, self.k - 1, axis=1)[:, : self.k]
        votes = self.train_labels[neighbours].sum(axis=1)
        return (votes * 2 > self.k).astype(int)


@dataclass(frozen=True, eq=False)
class CentroidClassifier:
    """Distance-to-centroid rule along a truncated eigenbasis contrast."""

    grid: Grid
    psi_curve: np.ndarray
    proj0: float
    proj1: float
    order: int

    def __post_init__(self):
        object.__setattr__(self, "psi_curve", _frozen_array(self.psi_curve))

    def project(self, curves: np.ndarray) -> np.ndarray:
        return curves @ self.psi_curve * self.grid.spacing

    def decide(self, curves: np.ndarray) -> np.ndarray:
        s = self.project(curves)
        return ((s - self.proj1) ** 2 < (s - self.proj0) ** 2).astype(int)


TrainedClassifier = Union[RKCClassifier, KNNClassifier, CentroidClassifier]

# The centroid fit treats the spectrum as empty when the class-centred curves
# are this small relative to the raw curves: what is left is rounding noise.
DEGENERATE_RTOL = 1e-12


def train_rkc(
    dataset: LabeledDataset,
    points,
    prior: float | None = None,
    policy: RidgePolicy = DEFAULT_RIDGE,
    kernel: KernelSpec | None = None,
) -> RKCClassifier:
    """Fit the linear rule at the given grid times.

    ``prior`` overrides the dataset's prior mode.  Passing ``kernel`` swaps
    the pooled covariance for the analytic Gram of a known covariance, the
    oracle variant; class means are estimated from the sample either way.
    Raises TrainingError when the covariance stays singular after ridging.
    """
    moments = class_moments(dataset)
    if moments.n0 < 2 or moments.n1 < 2:
        raise ValueError("both classes need at least 2 samples")
    idx = dataset.grid.indices_of(points)
    if kernel is None:
        cov = pooled_cov(dataset, dataset.grid.points[idx])
    else:
        cov = gram(kernel, dataset.grid.points[idx])
    try:
        alphas, _ = solve_spd(cov, moments.diff_at(idx), policy)
    except SingularMatrixError as exc:
        raise TrainingError("covariance at the selected points is singular") from exc
    p = class_prior(dataset) if prior is None else float(prior)
    if not 0.0 < p < 1.0:
        raise ValueError("class prior must lie in (0, 1) for training")
    return RKCClassifier(
        grid=dataset.grid,
        indices=idx,
        alphas=alphas,
        midpoint=moments.midpoint_at(idx),
        log_prior_odds=math.log((1.0 - p) / p),
    )


def train_knn(dataset: LabeledDataset, k: int) -> KNNClassifier:
    """Memorize the training sample for k-nearest-neighbour voting; k odd avoids ties."""
    if dataset.class_curves(0).shape[0] == 0 or dataset.class_curves(1).shape[0] == 0:
        raise ValueError("both classes must be present")
    return KNNClassifier(
        grid=dataset.grid, train_curves=dataset.curves, train_labels=dataset.labels, k=k
    )


def centroid_classifiers(dataset: LabeledDataset, orders, clip: bool = False) -> list[CentroidClassifier]:
    """Centroid rules for several truncation orders sharing one eigensystem.

    The eigensystem is that of the pooled sample covariance on the full grid,
    ``Z^T Z`` for the class-centred curves ``Z`` of
    :func:`~rkfda.estimate.centred_curves`.  ``Z Z^T`` has the same nonzero
    eigenvalues, so the smaller Gram is diagonalized: with fewer curves than
    grid points (n < G) the n x n ``Z Z^T``, whose eigenvectors ``u_j`` map
    back to eigenfunctions ``Z^T u_j / sqrt(w_j)`` for the requested orders
    only; otherwise the G x G ``Z^T Z``.  Orders must not exceed the part of
    the spectrum above 1e-10 of the top eigenvalue.  The spectrum is empty
    when the classes have degenerate variance, ``||Z||_F <= 1e-12 ||X||_F``
    for the raw curves X.  With ``clip`` set, out-of-range orders are dropped
    instead of raising.
    """
    orders = list(orders)
    moments = class_moments(dataset)
    if moments.n0 < 2 or moments.n1 < 2:
        raise ValueError("both classes need at least 2 samples")
    grid = dataset.grid
    dt = grid.spacing
    z = centred_curves(dataset)
    thin = z.shape[0] < z.shape[1]
    w, vecs = scipy.linalg.eigh((z @ z.T if thin else z.T @ z) * dt, check_finite=False)
    w = np.clip(w[::-1], 0.0, None)
    vecs = vecs[:, ::-1]
    if np.linalg.norm(z) <= DEGENERATE_RTOL * np.linalg.norm(dataset.curves):
        usable = 0
    else:
        usable = int(np.sum(w > 1e-10 * w[0]))
    top = min(usable, max(orders, default=0))
    if thin:
        phi = vecs[:, :top].T @ z / np.sqrt(w[:top])[:, None]
    else:
        phi = vecs[:, :top].T / math.sqrt(dt)
    out = []
    for r in orders:
        if not 1 <= r <= usable:
            if clip:
                continue
            raise ValueError(f"truncation order {r} exceeds the usable spectrum ({usable})")
        mu = phi[:r] @ moments.diff * dt
        psi_curve = (mu / w[:r]) @ phi[:r]
        out.append(
            CentroidClassifier(
                grid=grid,
                psi_curve=psi_curve,
                proj0=float(moments.m0 @ psi_curve * dt),
                proj1=float(moments.m1 @ psi_curve * dt),
                order=r,
            )
        )
    return out


def train_centroid(dataset: LabeledDataset, r: int) -> CentroidClassifier:
    """Fit the centroid rule with an order-``r`` eigenbasis truncation."""
    return centroid_classifiers(dataset, [r])[0]


def _as_batch(classifier: TrainedClassifier, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != classifier.grid.count:
        raise ValueError("curve length does not match the training grid")
    return arr


def classify(classifier: TrainedClassifier, x) -> int:
    """Label a single curve observed on the training grid."""
    return int(classifier.decide(_as_batch(classifier, x))[0])


def classify_batch(classifier: TrainedClassifier, curves) -> np.ndarray:
    return classifier.decide(_as_batch(classifier, curves))


def error_rate(classifier: TrainedClassifier, test: LabeledDataset) -> float:
    """Fraction of test curves whose predicted label differs from the truth."""
    if test.size == 0:
        raise ValueError("empty test set")
    if not classifier.grid.same_as(test.grid):
        raise ValueError("test grid differs from the training grid")
    return float(np.mean(classify_batch(classifier, test.curves) != test.labels))
