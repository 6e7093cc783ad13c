"""Classifiers: the linear rule on selected points, kNN, and the centroid rule.

``RKCClassifier`` is Fisher's linear rule on the values of a curve at a small
set of selected times, with coefficients alpha = Chat^{-1} mhat from the
pooled covariance and estimated mean difference; its score is

    alpha . (x(points) - midpoint) - log((1-p)/p)

and coincides with the optimal discriminant when the true mean difference is
a finite kernel expansion at those points.  The Cholesky factor of a greedy
scan serves :func:`rkc_decisions`, on every prefix of a selection, and
:func:`train_rkc`, scanning given points.  ``KNNClassifier`` votes among the
k nearest training curves in the quadrature-scaled Euclidean metric; an
exact distance tie at the k-th place goes to the smaller training index.
:func:`knn_decisions` gives the votes of a whole k grid from two order
statistics per k: with j = k // 2 + 1 the vote is 1 exactly when the j-th
nearest class-1 curve ranks before the (k - j + 1)-th nearest class-0
curve.  Squared distances less the row constant ``||x||^2`` come from one
matrix product per cache-sized block of query rows, whose class halves are
partitioned in place, values only.  Each block writes into a query buffer
and a distance buffer allocated once per call, one pair per worker (a call
of at least two blocks per worker spreads them over the CPUs the process
may use, on plain threads).  A row whose two
statistics lie further apart than twice a rounding bound tau at every k is
decided: an order statistic moves by at most the largest rounding error, so
the exact rule compares the two curves the same way.  These rows include
all those whose k-th and (k+1)-th distances lie that far apart.  Every
other row (exact and near ties) goes to the exact rule, one stable sort of
its distances summed in grid order, bit for bit those of
``scipy.spatial.distance.cdist`` (the tests' oracle), without scipy.
Training and query curves must be finite rows on the grid, and training
labels 0 or 1, one per training curve.
``CentroidClassifier`` projects a curve onto a truncated eigenbasis contrast
and assigns the class whose projected centroid is closer;
:func:`centroid_decisions` decides for several truncation orders from one
product, and a single rule decides as its one row.

Score ties resolve to label 0 everywhere, which keeps decisions deterministic
for tests; under the continuous models a tie has probability zero.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    Grid,
    LabeledDataset,
    SelectionResult,
    TrainingError,
    _check_both_classes,
    _check_rows,
    _check_same_grid,
    _check_training,
    _frozen_array,
    _gather_by_class,
    _is_integer,
    class_prior,
)
# class_moments, pooled_cov, discretized_eigen, gram and solve_spd are unused
# here but stay importable from this module, where perfbench/tracing.py wraps them.
from .estimate import class_moments, pooled_cov  # noqa: F401
from .kernels import KernelSpec, discretized_eigen, gram, solve_spd  # noqa: F401
from .kernels import _solve_lower
from .select import SelectionConfig, greedy_select, oracle_source_from_dataset

__all__ = [
    "RKCClassifier",
    "KNNClassifier",
    "CentroidClassifier",
    "TrainedClassifier",
    "train_rkc",
    "rkc_decisions",
    "train_knn",
    "knn_decisions",
    "train_centroid",
    "centroid_classifiers",
    "centroid_decisions",
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
    """k-nearest-neighbour vote in the sqrt(dt)-scaled Euclidean metric.

    Neighbours rank by (distance, training index): an exact distance tie at
    the k-th place goes to the training curve with the smaller index.  A
    tied vote (even k) goes to label 0.  Training curves must be finite rows
    on the grid, labels 0 or 1, one per curve, and k an integer in [1, n].
    See :func:`knn_decisions`.
    """

    grid: Grid
    train_curves: np.ndarray
    train_labels: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "train_curves", _frozen_array(self.train_curves))
        object.__setattr__(self, "train_labels", _frozen_array(self.train_labels, dtype=int))
        _check_training(self.grid, self.train_curves, self.train_labels)
        if not _is_integer(self.k):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if not 1 <= self.k <= self.train_labels.size:
            raise ValueError("k must lie in [1, n]")

    def decide(self, curves: np.ndarray) -> np.ndarray:
        return knn_decisions(self.grid, self.train_curves, self.train_labels, curves, [self.k])[0]


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

    def decide(self, curves: np.ndarray) -> np.ndarray:
        return centroid_decisions([self], curves)[0]


TrainedClassifier = Union[RKCClassifier, KNNClassifier, CentroidClassifier]

# The centroid fit treats the spectrum as empty when the class-centred curves
# are this small relative to the raw curves: what is left is rounding noise.
_EMPTY_SPECTRUM_RTOL = 1e-12


def _rkc_moments(dataset: LabeledDataset):
    """Class moments and log((1-p)/p) for the linear rule, checked for training."""
    moments = dataset.moments
    moments.require_covariance()
    p = class_prior(dataset)
    return moments, math.log((1.0 - p) / p)


def train_rkc(dataset: LabeledDataset, points, kernel: KernelSpec | None = None) -> RKCClassifier:
    """Fit the linear rule at the given grid times.

    The prior is the dataset's (``fixed_prior`` or the class-1 fraction).
    Passing ``kernel`` swaps the pooled covariance for the analytic Gram of a
    known covariance, the oracle variant; class means are estimated from the
    sample either way.
    alpha = L^{-T} L^{-1} m from the factor L of the greedy scan restricted to
    the points, which keeps them in scan order; raises TrainingError when it
    keeps fewer than given (e.g. a repeated point), and adds no ridge.
    """
    moments, log_prior_odds = _rkc_moments(dataset)
    idx = dataset.grid.indices_of(points)
    source = dataset if kernel is None else oracle_source_from_dataset(dataset, kernel)
    scan = greedy_select(source, SelectionConfig(idx.size, candidate_mask=idx))
    if len(scan) < idx.size:
        raise TrainingError("covariance at the selected points is singular")
    alphas = _solve_lower(scan.factor, _solve_lower(scan.factor, moments.diff_at(scan.indices)), transpose=True)
    return RKCClassifier(
        grid=dataset.grid,
        indices=scan.indices,
        alphas=alphas,
        midpoint=moments.midpoint_at(scan.indices),
        log_prior_odds=log_prior_odds,
    )


def rkc_decisions(dataset: LabeledDataset, selection: SelectionResult, curves) -> np.ndarray:
    """Decisions of the linear rule on every prefix of a greedy selection.

    Returns an int array of shape ``(len(selection), len(curves))``; row
    d - 1 holds the decisions of the rule fitted on ``selection.points[:d]``,
    with the covariance whose Cholesky factor L the selection carries (the
    pooled covariance or an analytic Gram) and the class means and prior of
    ``dataset``, as :func:`train_rkc` fits it.  With ``w = L^{-1} m`` and
    ``U = L^{-1} (x - midpoint)`` from one forward substitution over the
    columns ``[m, x - midpoint]``, the score at d is
    ``sum_{k<d} w_k U_k - log((1-p)/p)``, a cumulative sum over k.  The
    selection's degeneracy rule, the pivot rule of ``kernels.solve_spd``,
    keeps L invertible.
    """
    moments, log_prior_odds = _rkc_moments(dataset)
    idx = selection.indices
    centred = np.asarray(curves)[:, idx] - moments.midpoint_at(idx)
    rhs = np.column_stack([moments.diff_at(idx), centred.T])
    solved = _solve_lower(selection.factor, rhs)
    scores = np.cumsum(solved[:, :1] * solved[:, 1:], axis=0) - log_prior_odds
    return (scores > 0.0).astype(int)


# Units of the kNN screen's rounding bound: float64 machine epsilon (twice the
# unit roundoff u) and the smallest subnormal, the absolute error a rounded
# product or sum can add under gradual underflow.
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)

# Bytes of one query block's squared distances to the n training curves, so
# that its product, partial sort and vote stay in cache; 1 MiB ran faster
# than 256 KiB and 2 MiB blocks on n = 1000.
_BLOCK_BYTES = 1 << 20


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def knn_decisions(grid: Grid, train_curves, train_labels, curves, ks) -> np.ndarray:
    """kNN decisions for every k in ``ks``, screened in cache-sized row blocks.

    Returns an int array of shape ``(len(ks), len(curves))``; row i holds the
    vote of the ``ks[i]`` nearest training curves, label 1 when more than
    half of them are 1.  The decisions are those of the exact rule,
    :func:`_knn_decisions_exact`, which ranks exact distances by one
    stable sort, bit for bit.  ValueError is raised for curves that are not
    finite or not 2-D with one column per grid point, training labels other
    than 0 and 1 or not one per training curve, and ks that are not integers.

    The vote from two order statistics.  With j = k // 2 + 1, the vote at k
    is 1 exactly when at least j of the k nearest curves are of class 1, that
    is when the j-th nearest class-1 curve ranks before the (k - j + 1)-th
    nearest class-0 curve: of these two curves one is among the k nearest
    and the other is not.  A class with fewer curves than its statistic
    needs decides by count alone: j > n1 gives 0, and k - j + 1 > n0 gives 1
    (both cannot happen, as k <= n).

    On the sqrt(dt)-scaled query curves x_i and training curves y_j the
    squared distances are ``F_ij = ||x_i||^2 + ||y_j||^2 - 2 x_i . y_j``.
    The training side is prepared once per call as one array: the curves,
    class 0 first, scaled, their squared norms and the largest of them taken,
    and then multiplied by -2.  The query curves are taken in blocks of
    ``_BLOCK_BYTES // (8 n)`` rows, so that a block's distances fit in cache.
    For each block one matrix product gives ``F - ||x_i||^2``: a row
    constant moves no order statistic and no difference.  The class-0 and
    class-1 halves of each row are partitioned in place, values only, and the
    few smallest of each kept and sorted: ``max(k - k // 2)`` of class 0 and
    ``max(k // 2) + 1`` of class 1, each at most the class size.  A row is
    decided here when its kept values are finite and, at every k in ``ks``
    at which both statistics exist, they differ by more than ``2 tau_i``, with

        tau_i = 8 (G + 4) (eps M_i + eta),   M_i = ||x_i||^2 + max_j ||y_j||^2,

    eps the float64 epsilon (2u for the unit roundoff u) and eta the
    smallest subnormal.  Every other row, from any block, exact and near ties
    included, goes once through the exact rule.

    Why the margin fixes the comparison.  Let D be the exact squared distance
    of the scaled curves, so D <= (||x|| + ||y||)^2 <= 2M.  To first order
    in u, and with eta covering underflow:

    - the product: ``||x||^2``, ``||y||^2`` and ``x . y`` are sums of G
      products, each within gamma_G ~ Gu of its magnitude in any summation
      order, BLAS blocking and threading included; scaling by -2 is exact,
      and the addition of ``||y||^2`` adds u on terms summing to at most 2M.
      So the computed value is within (2G + 4) u M of ``D - ||x||^2``;
    - the exact rule sums G rounded squares of rounded differences, so its
      squared distance S obeys |S - D| <= (G + 2) u D <= 2 (G + 2) u M;
    - the exact rule ranks by ``sqrt(S)`` rounded, which can merge two
      values of S, sending them to the index rule, only when they differ by
      less than about 4u S <= 8u M.

    An order statistic of a set of values moves by at most the largest
    entrywise error.  So when the two computed statistics differ by more than
    2 tau_i, the same two statistics of S differ by more than
    2 tau_i - 2 (2G + 4) u M - 4 (G + 2) u M, which exceeds 8u M for
    tau_i >= (4G + 12) u M; the bound above is more than four times that.
    The exact rule then ranks its j-th class-1 curve and its (k - j + 1)-th
    class-0 curve strictly the same way, whatever the index order, and both
    rules vote alike.  The bounds hold only without overflow, so a row whose
    kept values or tau are not all finite falls back too.  The proof holds
    block by block: each row's product is one row of the full product, summed
    in whatever order the block's GEMM chooses, which the bound covers, and
    M_i takes the largest norm over all training curves, not over a block.

    The rows decided here include every row whose k-th and (k+1)-th
    smallest distances lie more than ``2 tau_i`` apart at every k: of the
    two curves compared one lies among the k nearest and the other does
    not, so such a gap separates them.

    The product and the partition release the interpreter lock, so a call
    of b blocks deals them round-robin to ``min(b // 2, cpus)`` workers, cpus
    being the CPUs this process may run on (``os.sched_getaffinity``): the
    calling thread takes one share and plain threads started for the call
    take the rest, joined before it returns; an exception in one is raised
    in the caller.  A call with fewer than two workers runs in the calling
    thread and starts no thread.  The calling thread allocates each worker's
    query buffer and distance buffer once per call, ``min(step, queries)``
    rows each for blocks of ``step`` rows, and every block writes its scaled
    curves and its product into them in place: no block allocates its own
    distances, and no helper thread an array of n columns.  Each worker gets
    at least two blocks; whether one block repays a thread is not yet
    measured.  Over eight alternating pairs of perfbench ``large-n`` runs
    (n = 1000, 2 CPUs, 20 s each) the split ran up to 10 % faster than one
    worker (median 21.1 against 19.2 runs/s, faster in 7 of 8 pairs) and held
    1.5 MB more peak memory (48.3-48.6 against 46.9-47.4 MB), most of it the
    helper thread's own BLAS buffer and malloc arena.
    """
    if np.ndim(ks) != 1 or not all(map(_is_integer, ks)):
        raise ValueError("ks must be a sequence of integers")
    ks = np.asarray(ks, dtype=int)
    train_curves = np.asarray(train_curves, dtype=float)
    train_labels = np.asarray(train_labels)
    _check_training(grid, train_curves, train_labels)
    n = train_labels.size
    if ks.size == 0 or ks.min() < 1 or ks.max() > n:
        raise ValueError("k must lie in [1, n]")
    curves = np.asarray(curves, dtype=float)
    _check_rows(grid, curves, "query")
    y, n0 = _gather_by_class(train_curves, train_labels)
    n1 = n - n0
    rank1 = ks // 2 + 1  # j, the rank of the class-1 statistic
    rank0 = ks - ks // 2  # k - j + 1, the rank of the class-0 statistic
    both = (rank1 <= n1) & (rank0 <= n0)  # the ks that compare two statistics
    at0, at1 = rank0[both] - 1, rank1[both] - 1
    keep0 = min(int(rank0.max()), n0)
    keep1 = min(int(rank1.max()), n1)
    scale = math.sqrt(grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the screen
        y *= scale
        yy = np.einsum("ij,ij->i", y, y)
        yy_max = yy.max()
        y *= -2.0
    queries = curves.shape[0]
    out = np.empty((ks.size, queries), dtype=int)
    out[:] = (rank1 <= n1)[:, None]  # the votes that a class too small decides by count
    sure = np.empty(queries, dtype=bool)

    def screen(blocks, x_buf, d2_buf):
        # numpy's error state is per thread: set it in the thread that computes
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in blocks:
                x = np.multiply(curves[rows], scale, out=x_buf[: rows.stop - rows.start])
                xx = np.einsum("ij,ij->i", x, x)
                d2 = np.matmul(x, y.T, out=d2_buf[: len(x)])
                d2 += yy
                near0 = _smallest(d2[:, :n0], keep0)
                near1 = _smallest(d2[:, n0:], keep1)
                stat0, stat1 = near0[:, at0], near1[:, at1]
                tau = 8 * (grid.count + 4) * (_EPS * (xx + yy_max) + _TINY)
                sure[rows] = (
                    np.isfinite(near0).all(axis=1)
                    & np.isfinite(near1).all(axis=1)
                    & np.all(np.abs(stat1 - stat0) > 2 * tau[:, None], axis=1)
                )
                out[both, rows] = (stat1 < stat0).T

    step = max(1, _BLOCK_BYTES // (8 * n))
    blocks = [slice(start, min(start + step, queries)) for start in range(0, queries, step)]
    workers = max(1, min(len(blocks) // 2, _cpus()))
    buf_rows = min(step, queries)
    shares = [
        (blocks[w::workers], np.empty((buf_rows, grid.count)), np.empty((buf_rows, n))) for w in range(workers)
    ]
    errors = []

    def helper(share):
        try:
            screen(*share)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=helper, args=(share,)) for share in shares[1:]]
    for thread in threads:
        thread.start()
    try:
        screen(*shares[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        out[:, unsure] = _knn_decisions_exact(grid, train_curves, train_labels, curves[unsure], ks)
    return out


def _smallest(d2: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` smallest values of each row of ``d2``, sorted, as a view of
    its first columns; partitions and sorts ``d2`` in place."""
    if count < d2.shape[1]:
        d2.partition(count - 1, axis=1)
    near = d2[:, :count]
    near.sort(axis=1)
    return near


def _knn_decisions_exact(grid: Grid, train_curves, train_labels, curves, ks) -> np.ndarray:
    """The kNN rule that :func:`knn_decisions` reproduces, from exact ranks.

    Same arguments and result.  The distances of the sqrt(dt)-scaled curves
    add the squared differences at grid points 0, 1, ..., G - 1 in that
    order, the order in which ``cdist`` sums, so they equal its distances
    bit for bit (an overflow gives inf, as there); a pairwise ``sum`` or
    ``einsum`` rounds differently.  One stable sort ranks each row by
    (distance, training index), and a cumulative sum of the labels of the
    ``max(ks)`` nearest gives every vote.
    """
    ks = np.asarray(ks, dtype=int)
    train_labels = np.asarray(train_labels)
    scale = math.sqrt(grid.spacing)
    x = np.asarray(curves) * scale
    y = np.asarray(train_curves) * scale
    dist = np.zeros((x.shape[0], y.shape[0]))
    with np.errstate(over="ignore"):
        for g in range(x.shape[1]):
            dist += (x[:, g, None] - y[:, g]) ** 2
    np.sqrt(dist, out=dist)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, : int(ks.max())]
    cum = np.cumsum(train_labels[nearest], axis=1)
    return (cum[:, ks - 1].T * 2 > ks[:, None]).astype(int)


def train_knn(dataset: LabeledDataset, k: int) -> KNNClassifier:
    """Memorize the training sample for k-nearest-neighbour voting; k odd avoids ties."""
    _check_both_classes(dataset.labels)
    return KNNClassifier(
        grid=dataset.grid, train_curves=dataset.curves, train_labels=dataset.labels, k=k
    )


def centroid_classifiers(dataset: LabeledDataset, orders, clip: bool = False) -> list[CentroidClassifier]:
    """Centroid rules for several truncation orders sharing one eigensystem.

    The eigensystem is that of the pooled sample covariance on the full grid,
    ``Z^T Z`` for the class-centred curves ``Z = dataset.moments.z``, which
    needs two curves per class.  ``Z Z^T`` has the same nonzero
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
    moments = dataset.moments
    moments.require_covariance()
    z = moments.z
    grid = dataset.grid
    dt = grid.spacing
    thin = z.shape[0] < z.shape[1]
    w, vecs = np.linalg.eigh((z @ z.T if thin else z.T @ z) * dt)
    w = np.clip(w[::-1], 0.0, None)
    vecs = vecs[:, ::-1]
    if np.linalg.norm(z) <= _EMPTY_SPECTRUM_RTOL * np.linalg.norm(dataset.curves):
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


def centroid_decisions(classifiers, curves) -> np.ndarray:
    """Decisions of several centroid rules on the same grid, from one product.

    Returns an int array of shape ``(len(classifiers), len(curves))``; row i
    holds ``classifiers[i].decide(curves)``.
    """
    if not classifiers:
        raise ValueError("no centroid rules to decide with")
    psi = np.stack([c.psi_curve for c in classifiers])
    s = (np.asarray(curves) @ psi.T * classifiers[0].grid.spacing).T
    proj0 = np.array([[c.proj0] for c in classifiers])
    proj1 = np.array([[c.proj1] for c in classifiers])
    return ((s - proj1) ** 2 < (s - proj0) ** 2).astype(int)


def train_centroid(dataset: LabeledDataset, r: int) -> CentroidClassifier:
    """Fit the centroid rule with an order-``r`` eigenbasis truncation."""
    return centroid_classifiers(dataset, [r])[0]


def classify_batch(classifier: TrainedClassifier, curves) -> np.ndarray:
    """Labels of curves on the training grid, one per row; a 1-D ``curves`` is one curve."""
    arr = np.asarray(curves, dtype=float)
    arr = arr[None, :] if arr.ndim == 1 else arr
    _check_rows(classifier.grid, arr, "query")
    return classifier.decide(arr)


def error_rate(classifier: TrainedClassifier, test: LabeledDataset) -> float:
    """Fraction of test curves whose predicted label differs from the truth."""
    if test.size == 0:
        raise ValueError("empty test set")
    _check_same_grid(classifier.grid, test.grid)
    return float(np.mean(classify_batch(classifier, test.curves) != test.labels))
