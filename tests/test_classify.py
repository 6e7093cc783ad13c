from dataclasses import dataclass

import numpy as np
import pytest

from rkfda import (
    Grid,
    LabeledDataset,
    RKCClassifier,
    TrainingError,
    bayes_error,
    class_moments,
    classify,
    classify_batch,
    discretized_eigen,
    error_rate,
    make_grid,
    pooled_cov,
    train_centroid,
    train_knn,
    train_rkc,
)
from rkfda.classify import CentroidClassifier, centroid_classifiers
from rkfda.simulate import builtin_catalog, gen_model_dataset, standard_grid


def _dataset(curves0, curves1, grid=None, fixed_prior=None):
    curves0 = np.atleast_2d(np.asarray(curves0, dtype=float))
    curves1 = np.atleast_2d(np.asarray(curves1, dtype=float))
    g = grid if grid is not None else make_grid(curves0.shape[1], 0, 1)
    return LabeledDataset(
        grid=g,
        curves=np.vstack([curves0, curves1]),
        labels=np.array([0] * len(curves0) + [1] * len(curves1)),
        fixed_prior=fixed_prior,
    )


def _separable(rng, n=20, spread=0.2):
    g = make_grid(2, 0, 1)
    x0 = rng.normal(0.0, spread, size=(n, 2))
    x1 = rng.normal(10.0, spread, size=(n, 2))
    return _dataset(x0, x1, grid=g, fixed_prior=0.5), g


def test_rkc_separable_threshold():
    rng = np.random.default_rng(1)
    ds, g = _separable(rng)
    clf = train_rkc(ds, [g.points[0]])
    assert classify(clf, [9.0, 0.0]) == 1
    assert classify(clf, [1.0, 0.0]) == 0


def test_rkc_label_swap_flips_decisions():
    rng = np.random.default_rng(2)
    ds, g = _separable(rng)
    swapped = LabeledDataset(
        grid=g, curves=ds.curves, labels=1 - ds.labels, fixed_prior=0.5
    )
    clf = train_rkc(ds, g.points)
    flipped = train_rkc(swapped, g.points)
    probes = rng.normal(5.0, 4.0, size=(50, 2))
    np.testing.assert_array_equal(
        classify_batch(clf, probes), 1 - classify_batch(flipped, probes)
    )


def test_rkc_decisions_invariant_under_covariance_scaling():
    # at even prior the sign of alpha.(x - midpoint) ignores a positive factor
    rng = np.random.default_rng(6)
    ds, g = _separable(rng)
    clf = train_rkc(ds, g.points)
    scaled = RKCClassifier(
        grid=clf.grid,
        indices=clf.indices,
        alphas=clf.alphas / 7.5,  # same as scaling the covariance by 7.5
        midpoint=clf.midpoint,
        log_prior_odds=0.0,
    )
    probes = rng.normal(5.0, 4.0, size=(60, 2))
    np.testing.assert_array_equal(classify_batch(clf, probes), classify_batch(scaled, probes))


def test_rkc_tie_goes_to_zero():
    clf = RKCClassifier(
        grid=make_grid(2, 0, 1),
        indices=[0],
        alphas=[1.0],
        midpoint=[0.5],
        log_prior_odds=0.0,
    )
    assert classify(clf, [0.9, 0.0]) == 1
    assert classify(clf, [0.5, 0.0]) == 0


def test_rkc_training_failure_on_constant_point():
    g = make_grid(2, 0, 1)
    ds = _dataset(np.zeros((3, 2)), np.ones((3, 2)), grid=g)
    with pytest.raises(TrainingError):
        train_rkc(ds, [g.points[0]])


def test_rkc_toy_consistency_at_the_knots():
    # trained at the five informative times the rule approaches the optimum
    toy = builtin_catalog()["TOY"]
    grid = make_grid(9, 0, 1)
    knots = [0.25, 0.375, 0.5, 0.75, 1.0]
    train = gen_model_dataset(toy, 2000, grid, 101)
    test = gen_model_dataset(toy, 100_000, grid, 202)
    clf = train_rkc(train, knots)
    err = error_rate(clf, test)
    assert abs(err - bayes_error(2.0, 0.5)) < 0.02


def test_knn_nearest_neighbour():
    g = make_grid(2, 0, 1)
    ds = _dataset([[0.0, 0.0]], [[1.0, 1.0]], grid=g)
    clf = train_knn(ds, k=1)
    assert classify(clf, [0.9, 0.9]) == 1
    assert classify(clf, [0.1, 0.1]) == 0


def test_knn_k_equals_n_predicts_majority():
    g = make_grid(2, 0, 1)
    ds = _dataset(np.zeros((3, 2)), np.ones((5, 2)), grid=g)
    clf = train_knn(ds, k=8)
    probes = np.random.default_rng(3).normal(size=(10, 2))
    assert np.all(classify_batch(clf, probes) == 1)


def test_knn_rejects_bad_k():
    g = make_grid(2, 0, 1)
    ds = _dataset(np.zeros((2, 2)), np.ones((2, 2)), grid=g)
    with pytest.raises(ValueError):
        train_knn(ds, k=5)


def test_centroid_r1_reduces_to_projection_sign():
    rng = np.random.default_rng(9)
    g = make_grid(20, 0, 1)
    base = np.sin(2 * np.pi * g.points)
    x0 = rng.normal(size=(40, 1)) * base
    x1 = rng.normal(size=(40, 1)) * base + 2.0 * base
    ds = _dataset(x0, x1, grid=g)
    clf = train_centroid(ds, 1)
    moments = class_moments(ds)
    mid = (clf.proj0 + clf.proj1) / 2.0
    probes = rng.normal(size=(30, 1)) * base + rng.uniform(0, 2) * base
    s = clf.project(probes)
    expected = (np.abs(s - clf.proj1) < np.abs(s - clf.proj0)).astype(int)
    np.testing.assert_array_equal(classify_batch(clf, probes), expected)
    assert classify(clf, moments.m0) == 0
    assert classify(clf, moments.m1) == 1
    assert clf.order == 1 and np.isfinite(mid)


def test_centroid_rejects_excess_order():
    rng = np.random.default_rng(12)
    g = make_grid(10, 0, 1)
    ds = _dataset(rng.normal(size=(4, 10)), rng.normal(size=(4, 10)), grid=g)
    # 8 samples span at most 6 centered directions
    with pytest.raises(ValueError):
        train_centroid(ds, 9)
    assert centroid_classifiers(ds, range(1, 12), clip=True)


@dataclass(frozen=True, eq=False)
class _MatrixKernel:
    """Covariance matrix given on a fixed grid, queried only at grid points."""

    matrix: np.ndarray
    grid: Grid

    def pairwise(self, s, t):
        i = np.searchsorted(self.grid.points, s)
        j = np.searchsorted(self.grid.points, t)
        return self.matrix[np.ix_(i, j)]


def _reference_centroid_classifiers(dataset, orders):
    """Centroid rules from the full G x G eigensolve of the pooled covariance.

    The oracle for ``centroid_classifiers``: same usable-spectrum rule, with
    out-of-range orders dropped as under ``clip``.
    """
    moments = class_moments(dataset)
    grid = dataset.grid
    dt = grid.spacing
    eigen = discretized_eigen(_MatrixKernel(pooled_cov(dataset), grid), grid)
    usable = int(np.sum(eigen.eigenvalues > 1e-10 * eigen.eigenvalues[0]))
    out = []
    for r in orders:
        if not 1 <= r <= usable:
            continue
        mu = eigen.eigenfunctions[:r] @ moments.diff * dt
        psi_curve = (mu / eigen.eigenvalues[:r]) @ eigen.eigenfunctions[:r]
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


def _assert_matches_reference(train, validation, orders=range(1, 21)):
    fast = centroid_classifiers(train, orders, clip=True)
    slow = _reference_centroid_classifiers(train, orders)
    assert [c.order for c in fast] == [c.order for c in slow]
    for a, b in zip(fast, slow):
        scale = np.abs(b.psi_curve).max()
        np.testing.assert_allclose(a.psi_curve, b.psi_curve, rtol=0.0, atol=1e-4 * scale)
        np.testing.assert_array_equal(a.decide(validation.curves), b.decide(validation.curves))
    return fast


def _rows(ds, start, stop):
    return LabeledDataset(
        grid=ds.grid,
        curves=ds.curves[start:stop],
        labels=ds.labels[start:stop],
        fixed_prior=ds.fixed_prior,
    )


def test_centroid_matches_full_eigensolve_on_catalog():
    # n = 50 < G = 100 takes the n x n Gram, n = 200 >= G the G x G one; a
    # sample's first rows are the smaller sample with the same seed
    grid = standard_grid(100)
    for model in builtin_catalog().values():
        ds = gen_model_dataset(model, 250, grid, 31)
        validation = _rows(ds, 200, 250)
        for n in (50, 200):
            _assert_matches_reference(_rows(ds, 0, n), validation)


@pytest.mark.parametrize("model_id", ["G4", "L1-B"])
def test_centroid_matches_full_eigensolve_on_dense_grid(model_id):
    model = builtin_catalog()[model_id]
    grid = standard_grid(1000)
    train = gen_model_dataset(model, 200, grid, 32)
    validation = gen_model_dataset(model, 100, grid, 33)
    assert len(_assert_matches_reference(train, validation)) == 20


def test_centroid_matches_full_eigensolve_at_rank_boundary():
    rng = np.random.default_rng(12)
    g = make_grid(10, 0, 1)
    ds = _dataset(rng.normal(size=(4, 10)), rng.normal(size=(4, 10)), grid=g)
    validation = _dataset(rng.normal(size=(20, 10)), rng.normal(size=(20, 10)), grid=g)
    assert len(_assert_matches_reference(ds, validation, range(1, 12))) == 6


@pytest.mark.parametrize("count", [10, 4])
def test_centroid_flat_spectrum_for_orthogonal_centred_curves(count):
    # curves m_r +- s q_k for orthonormal q_1..q_4: the pooled covariance is
    # (s^2 / 2) sum_k q_k q_k^T, flat on a rank-4 subspace (n = 8 < G = 10
    # takes the n x n Gram, G = 4 the G x G one)
    rng = np.random.default_rng(21)
    g = make_grid(count, 0, 1)
    q = np.linalg.qr(rng.normal(size=(count, 4)))[0].T
    s = 3.0
    m0, m1 = rng.normal(size=(2, count))
    x0 = m0 + s * np.array([q[0], -q[0], q[1], -q[1]])
    x1 = m1 + s * np.array([q[2], -q[2], q[3], -q[3]])
    ds = _dataset(x0, x1, grid=g)
    built = centroid_classifiers(ds, range(1, count + 1), clip=True)
    assert [c.order for c in built] == [1, 2, 3, 4]
    with pytest.raises(ValueError, match=r"usable spectrum \(4\)"):
        train_centroid(ds, 5)
    # with every eigenvalue equal to s^2 / 2, the full-order contrast is the
    # mean difference projected onto span(q) over that eigenvalue
    diff = class_moments(ds).diff
    expected = q.T @ (q @ diff) / (s**2 / 2 * g.spacing)
    np.testing.assert_allclose(built[-1].psi_curve, expected, rtol=1e-10, atol=1e-12 * np.abs(expected).max())


def test_centroid_degenerate_variance_has_empty_spectrum():
    # identical curves within each class: the centred curves are rounding
    # noise, which must not pass for a spectrum
    rng = np.random.default_rng(4)
    g = make_grid(10, 0, 1)
    a, b = rng.normal(size=(2, 10))
    ds = _dataset(np.tile(a, (3, 1)), np.tile(b, (5, 1)), grid=g)
    assert centroid_classifiers(ds, range(1, 5), clip=True) == []
    with pytest.raises(ValueError, match=r"usable spectrum \(0\)"):
        train_centroid(ds, 1)


def test_centroid_toy_desk_scale():
    toy = builtin_catalog()["TOY"]
    grid = make_grid(9, 0, 1)
    train = gen_model_dataset(toy, 1000, grid, 77)
    val = gen_model_dataset(toy, 500, grid, 78)
    test = gen_model_dataset(toy, 4000, grid, 79)
    best = None
    for clf in centroid_classifiers(train, range(1, 9), clip=True):
        acc = 1.0 - error_rate(clf, val)
        if best is None or acc > best[0]:
            best = (acc, clf)
    err = error_rate(best[1], test)
    assert abs(err - bayes_error(2.0, 0.5)) < 0.05


def test_error_rate_degenerate_classifiers():
    g = make_grid(2, 0, 1)
    always_one = RKCClassifier(
        grid=g, indices=[0], alphas=[0.0], midpoint=[0.0], log_prior_odds=-1.0
    )
    ones = LabeledDataset(grid=g, curves=np.zeros((5, 2)), labels=np.ones(5, dtype=int))
    zeros = LabeledDataset(grid=g, curves=np.zeros((5, 2)), labels=np.zeros(5, dtype=int))
    assert error_rate(always_one, ones) == 0.0
    assert error_rate(always_one, zeros) == 1.0


def test_error_rate_coin_classifier():
    # score driven by an uninformative point behaves like a fair coin
    rng = np.random.default_rng(15)
    g = make_grid(2, 0, 1)
    n = 10_000
    curves = rng.normal(size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    test = LabeledDataset(grid=g, curves=curves, labels=labels)
    coin = RKCClassifier(grid=g, indices=[0], alphas=[1.0], midpoint=[0.0], log_prior_odds=0.0)
    assert error_rate(coin, test) == pytest.approx(0.5, abs=0.015)


def test_error_rate_rejects_grid_mismatch():
    g = make_grid(2, 0, 1)
    clf = RKCClassifier(grid=g, indices=[0], alphas=[1.0], midpoint=[0.0], log_prior_odds=0.0)
    other = LabeledDataset(
        grid=make_grid(3, 0, 1), curves=np.zeros((2, 3)), labels=np.array([0, 1])
    )
    with pytest.raises(ValueError):
        error_rate(clf, other)
    with pytest.raises(ValueError):
        classify(clf, np.zeros(3))
