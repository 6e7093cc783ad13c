import ast
import collections
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.spatial.distance

from rkfda import (
    Grid,
    LabeledDataset,
    RKCClassifier,
    TrainingError,
    bayes_error,
    classify_batch,
    discretized_eigen,
    error_rate,
    make_grid,
    train_centroid,
    train_knn,
    train_rkc,
)
from rkfda.bench import ExperimentPlan, _accuracies, _apply_method, _candidates, _model_entropy
from rkfda.estimate import class_moments, pooled_cov
from rkfda.classify import (
    _BLOCK_BYTES,
    _EPS,
    _TINY,
    CentroidClassifier,
    KNNClassifier,
    _cpus,
    _knn_decisions_exact,
    _rkc_moments,
    centroid_classifiers,
    centroid_decisions,
    knn_decisions,
    rkc_decisions,
)
from rkfda.core import SelectionResult, _check_finite
from rkfda.kernels import BrownianKernel, gram, solve_spd
from rkfda.select import SelectionConfig, greedy_select, oracle_source_from_dataset
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


def _refit_rkc(dataset, points, kernel=None):
    """The linear rule as fitted before the greedy scan's factor served it.

    A second covariance at the points, the pooled estimate or the analytic
    Gram, factored again by ``solve_spd``; the points keep the given order.
    """
    moments, log_prior_odds = _rkc_moments(dataset)
    idx = dataset.grid.indices_of(points)
    at = dataset.grid.points[idx]
    cov = pooled_cov(dataset, at) if kernel is None else gram(kernel, at)
    return RKCClassifier(
        grid=dataset.grid,
        indices=idx,
        alphas=solve_spd(cov, moments.diff_at(idx)),
        midpoint=moments.midpoint_at(idx),
        log_prior_odds=log_prior_odds,
    )


def test_rkc_separable_threshold():
    rng = np.random.default_rng(1)
    ds, g = _separable(rng)
    clf = train_rkc(ds, [g.points[0]])
    assert classify_batch(clf, [9.0, 0.0]).tolist() == [1]
    assert classify_batch(clf, [1.0, 0.0]).tolist() == [0]


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
    assert classify_batch(clf, [0.9, 0.0]).tolist() == [1]
    assert classify_batch(clf, [0.5, 0.0]).tolist() == [0]


@pytest.mark.parametrize("fixed_prior", [0.5, 0.8, None])
def test_rkc_decisions_score_every_prefix_like_train_rkc(fixed_prior):
    rng = np.random.default_rng(7)
    g = make_grid(8, 0, 1)
    x0 = np.cumsum(rng.normal(size=(15, 8)), axis=1)
    x1 = np.cumsum(rng.normal(size=(25, 8)), axis=1) + 2.0 * g.points
    ds = _dataset(x0, x1, grid=g, fixed_prior=fixed_prior)
    selection = greedy_select(ds, SelectionConfig(d_max=5))
    moments = class_moments(ds)
    # the last probe sits on the midpoint, where an even-prior score is exactly 0
    probes = np.vstack([rng.normal(1.0, 2.0, size=(40, 8)), (moments.m0 + moments.m1) / 2.0])
    decisions = rkc_decisions(ds, selection, probes)
    assert decisions.shape == (5, 41)
    for d in range(1, 6):
        np.testing.assert_array_equal(decisions[d - 1], _refit_rkc(ds, selection.points[:d]).decide(probes))
        np.testing.assert_array_equal(decisions[d - 1], train_rkc(ds, selection.points[:d]).decide(probes))
    if fixed_prior == 0.5:
        assert np.all(decisions[:, -1] == 0)


def test_rkc_decisions_need_two_curves_per_class():
    g = make_grid(3, 0, 1)
    ds = _dataset(np.zeros((1, 3)), np.ones((3, 3)), grid=g)
    selection = SelectionResult(points=[0.5], indices=[1], psi_trace=[1.0], factor=[[1.0]])
    with pytest.raises(TrainingError):
        rkc_decisions(ds, selection, np.zeros((2, 3)))


def test_rkc_training_failure_on_constant_point():
    g = make_grid(2, 0, 1)
    ds = _dataset(np.zeros((3, 2)), np.ones((3, 2)), grid=g)
    with pytest.raises(TrainingError):
        train_rkc(ds, [g.points[0]])


def test_rkc_training_failure_on_a_repeated_point():
    # the pooled covariance at (t, t) has rank one: no ridge rescues it
    rng = np.random.default_rng(13)
    g = make_grid(4, 0, 1)
    ds = _dataset(rng.normal(size=(6, 4)), rng.normal(1.0, 1.0, size=(6, 4)), grid=g)
    train_rkc(ds, g.points[[1, 2]])
    with pytest.raises(TrainingError, match="singular"):
        train_rkc(ds, g.points[[2, 2]])


# Training sets of the bench's streams (plan seed 0, n = 200) whose selections
# reach prefixes so ill-conditioned that a second estimate and factorization
# of the covariance gave another rule: it flipped up to 47 % of the test
# decisions (L4-sB, d = 10) or failed to fit (L1-ssB, d = 8 to 10).
@pytest.mark.parametrize("model_id, run", [("L1-ssB", 5), ("L4-sB", 0), ("L4-ssB", 0)])
def test_train_rkc_decides_like_rkc_decisions_on_ill_conditioned_prefixes(model_id, run):
    model = builtin_catalog()[model_id]
    grid = standard_grid(1000)
    entropy = _model_entropy(model_id)
    train = gen_model_dataset(model, 200, grid, (0, entropy, 200, run, 0))
    test = gen_model_dataset(model, 1000, grid, (0, entropy, 200, run, 2))
    selection = greedy_select(train, SelectionConfig(d_max=10))
    decisions = rkc_decisions(train, selection, test.curves)
    for d in range(1, len(selection) + 1):
        clf = train_rkc(train, selection.points[:d])
        np.testing.assert_array_equal(clf.indices, selection.indices[:d])
        np.testing.assert_array_equal(clf.decide(test.curves), decisions[d - 1])


def _rkc_decisions_trsm(dataset, selection, curves):
    """``rkc_decisions`` with scipy's triangular solve (LAPACK trsm), its oracle."""
    moments, log_prior_odds = _rkc_moments(dataset)
    idx = selection.indices
    rhs = np.column_stack([moments.diff_at(idx), (np.asarray(curves)[:, idx] - moments.midpoint_at(idx)).T])
    solved = scipy.linalg.solve_triangular(selection.factor, rhs, lower=True)
    return (np.cumsum(solved[:, :1] * solved[:, 1:], axis=0) - log_prior_odds > 0.0).astype(int)


@pytest.mark.parametrize("n", [50, 200])
def test_rkc_decisions_match_the_scipy_triangular_solve_on_the_catalog(n):
    # the bench's streams (plan seed 0, G = 100), with both selection sources
    grid = standard_grid(100)
    config = SelectionConfig(d_max=10)
    for model_id, model in builtin_catalog().items():
        entropy = _model_entropy(model_id)
        for run in range(3):
            train = gen_model_dataset(model, n, grid, (0, entropy, n, run, 0))
            test = gen_model_dataset(model, 200, grid, (0, entropy, n, run, 2))
            for source in (train, oracle_source_from_dataset(train, BrownianKernel())):
                try:
                    selection = greedy_select(source, config)
                    got = rkc_decisions(train, selection, test.curves)
                except TrainingError:
                    continue
                np.testing.assert_array_equal(got, _rkc_decisions_trsm(train, selection, test.curves))


@pytest.mark.parametrize("kernel", [None, BrownianKernel()])
def test_train_rkc_ignores_the_order_of_its_points(kernel):
    grid = standard_grid(100)
    train = gen_model_dataset(builtin_catalog()["G4"], 50, grid, 31)
    points = grid.points[[70, 5, 33, 91, 50, 12]]
    fitted = train_rkc(train, points, kernel=kernel)
    rng = np.random.default_rng(31)
    for _ in range(5):
        clf = train_rkc(train, rng.permutation(points), kernel=kernel)
        for name in ("indices", "alphas", "midpoint"):
            np.testing.assert_array_equal(getattr(clf, name), getattr(fitted, name))
        assert clf.log_prior_odds == fitted.log_prior_odds


def test_train_rkc_fits_adjacent_points_of_an_offset_grid():
    # steps of t = 1e4 + j/200 round up to 3.6e-10 of a step below the first
    grid = make_grid(200, 1e4, 1e4 + 1)
    rng = np.random.default_rng(33)
    ds = _dataset(np.cumsum(rng.normal(size=(20, 200)), axis=1),
                  np.cumsum(rng.normal(size=(20, 200)), axis=1) + 1.0, grid=grid)
    for i in range(grid.count - 1):
        np.testing.assert_array_equal(np.sort(train_rkc(ds, grid.points[[i, i + 1]]).indices), [i, i + 1])


def test_train_rkc_neither_estimates_nor_solves_a_second_covariance(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("train_rkc estimated or solved a second covariance")

    for path, name in (
        ("rkfda.classify", "solve_spd"),
        ("rkfda.kernels", "solve_spd"),
        ("rkfda.classify", "pooled_cov"),
        ("rkfda.estimate", "pooled_cov"),
        ("rkfda.select", "pooled_cov"),
        ("rkfda.classify", "gram"),
    ):
        monkeypatch.setattr(importlib.import_module(path), name, forbidden)
    grid = standard_grid(100)
    train = gen_model_dataset(builtin_catalog()["G4"], 50, grid, 32)
    for kernel in (None, BrownianKernel()):
        assert train_rkc(train, grid.points[[10, 40, 80]], kernel=kernel).alphas.shape == (3,)


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
    assert classify_batch(clf, [0.9, 0.9]).tolist() == [1]
    assert classify_batch(clf, [0.1, 0.1]).tolist() == [0]


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


def _tied_neighbours_case(seed, n_close=3, n_tied=40, n_far=5):
    """Close curves, then many identical copies of one curve, then far curves.

    For a query at the origin the copies all tie exactly, so for k between
    n_close and n_close + n_tied the index rule alone decides which copies
    vote.  Returns the dataset and the expected decision for each such k.
    """
    rng = np.random.default_rng(seed)
    g = make_grid(4, 0, 1)
    close = rng.uniform(0.1, 0.5, size=(n_close, 4))
    tied = np.tile([1.0, -1.0, 1.0, -1.0], (n_tied, 1))
    far = rng.uniform(3.0, 4.0, size=(n_far, 4))
    kind = np.repeat([0, 1, 2], [n_close, n_tied, n_far])
    labels = rng.integers(0, 2, size=kind.size)
    labels[:2] = [0, 1]
    perm = rng.permutation(kind.size)
    curves, labels, kind = np.vstack([close, tied, far])[perm], labels[perm], kind[perm]
    ds = LabeledDataset(grid=g, curves=curves, labels=labels)
    close_votes = labels[kind == 0].sum()
    tied_labels = labels[kind == 1]  # in training-index order
    expected = {
        k: int((close_votes + tied_labels[: k - n_close].sum()) * 2 > k)
        for k in range(n_close, n_close + n_tied + 1)
    }
    return ds, expected


@pytest.mark.parametrize("seed", range(6))
def test_knn_exact_distance_ties_go_to_the_smaller_index(seed):
    ds, expected = _tied_neighbours_case(seed)
    query = np.zeros((1, 4))
    got = {k: int(train_knn(ds, k).decide(query)[0]) for k in expected}
    assert got == expected
    # every k at once, with the largest k inside the tied block
    ks = sorted(expected)[:-3]
    batch = knn_decisions(ds.grid, ds.curves, ds.labels, query, ks)
    assert batch[:, 0].tolist() == [expected[k] for k in ks]


@pytest.mark.parametrize("seed", range(4))
def test_validated_k_follows_the_neighbour_tie_rule(seed):
    train, expected = _tied_neighbours_case(seed)
    # every validation curve sits at the origin with label 1, so the accuracy
    # of each k is its expected decision there
    val = LabeledDataset(grid=train.grid, curves=np.zeros((5, 4)), labels=np.ones(5, dtype=int))
    ks = sorted(expected)
    decided = [expected[k] for k in ks]
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), k_grid=tuple(ks))
    candidates, decide = _candidates("kNN", train, plan)
    assert candidates == ks
    np.testing.assert_array_equal(_accuracies(decide(val.curves, slice(None)), val.labels), decided)
    test_acc, k = _apply_method("kNN", train, val, val, plan)
    assert k == ks[int(np.argmax(decided))]
    assert test_acc == expected[k]


def test_knn_decisions_reject_bad_k():
    ds = _dataset(np.zeros((2, 2)), np.ones((2, 2)), grid=make_grid(2, 0, 1))
    for ks in ([], [0], [1, 5]):
        with pytest.raises(ValueError):
            knn_decisions(ds.grid, ds.curves, ds.labels, np.zeros((1, 2)), ks)


# The screened kNN rule against the exact one it reproduces.

ODD_KS = list(range(1, 22, 2))


@pytest.fixture
def fallback_rows(monkeypatch):
    """Record the query rows that knn_decisions sends to the exact rule, one array a call."""
    module = importlib.import_module("rkfda.classify")
    exact = module._knn_decisions_exact
    rows = []

    def counting(grid, train_curves, train_labels, curves, ks):
        rows.append(np.array(curves))
        return exact(grid, train_curves, train_labels, curves, ks)

    monkeypatch.setattr(module, "_knn_decisions_exact", counting)
    return rows


def _knn_decisions_cdist(grid: Grid, train_curves, train_labels, curves, ks) -> np.ndarray:
    """The exact kNN rule as it stood with ``cdist`` distances, the oracle of
    ``_knn_decisions_exact`` and, being faster on whole query sets, of the screen.

    One stable sort ranks each row by (distance, training index), and a
    cumulative sum of the labels of the ``max(ks)`` nearest gives every vote.
    """
    ks = np.asarray(ks, dtype=int)
    train_labels = np.asarray(train_labels)
    scale = math.sqrt(grid.spacing)
    dist = scipy.spatial.distance.cdist(np.asarray(curves) * scale, np.asarray(train_curves) * scale)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, : int(ks.max())]
    cum = np.cumsum(train_labels[nearest], axis=1)
    return (cum[:, ks - 1].T * 2 > ks[:, None]).astype(int)


def _assert_screen_is_exact(grid, train_curves, train_labels, curves, ks):
    got = knn_decisions(grid, train_curves, train_labels, curves, ks)
    want = _knn_decisions_cdist(grid, train_curves, train_labels, curves, ks)
    np.testing.assert_array_equal(got, want)
    return got


# The screen as it stood before the order-statistic rule replaced it, kept
# as the oracle of that replacement.  It calls the exact rule through its
# module, so that the fallback_rows fixture sees its fallbacks too.
_classify_module = importlib.import_module("rkfda.classify")


def _knn_decisions_gap_screen(grid: Grid, train_curves, train_labels, curves, ks) -> np.ndarray:
    """kNN decisions for every k in ``ks``, screened by the gap at k.

    Same arguments and result as :func:`knn_decisions`.  A row is decided
    here when, at every k in ``ks`` below n, its k-th and (k+1)-th smallest
    squared distances ``||x||^2 + ||y||^2 - 2 x . y`` lie more than twice the
    rounding bound tau apart, with the votes from a cumulative sum of the
    labels of the nearest curves; every other row goes to the exact rule.
    """
    ks = np.asarray(ks, dtype=int)
    train_labels = np.asarray(train_labels)
    n = train_labels.size
    if ks.size == 0 or ks.min() < 1 or ks.max() > n:
        raise ValueError("k must lie in [1, n]")
    curves = np.asarray(curves, dtype=float)
    train_curves = np.asarray(train_curves, dtype=float)
    _check_finite(curves)
    _check_finite(train_curves)
    k_max = int(ks.max())
    m = min(k_max + 1, n)
    gap_at = ks[ks < n] - 1
    scale = math.sqrt(grid.spacing)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the screen
        y = train_curves * scale
        yy = np.einsum("ij,ij->i", y, y)
        yy_max = yy.max()
    queries = curves.shape[0]
    out = np.empty((ks.size, queries), dtype=int)
    sure = np.empty(queries, dtype=bool)

    def screen(blocks):
        # numpy's error state is per thread: set it in the thread that computes
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in blocks:
                x = curves[rows] * scale
                xx = np.einsum("ij,ij->i", x, x)
                d2 = x @ y.T
                d2 *= -2.0
                d2 += xx[:, None]
                d2 += yy
                near = np.argpartition(d2, m - 1, axis=1)[:, :m]
                near_d2 = np.take_along_axis(d2, near, axis=1)
                order = np.argsort(near_d2, axis=1)
                near = np.take_along_axis(near, order, axis=1)
                near_d2 = np.take_along_axis(near_d2, order, axis=1)
                gaps = np.diff(near_d2, axis=1)[:, gap_at]
                tau = 8 * (grid.count + 4) * (_EPS * (xx + yy_max) + _TINY)
                sure[rows] = np.isfinite(near_d2).all(axis=1) & np.all(gaps > 2 * tau[:, None], axis=1)
                cum = np.cumsum(train_labels[near[:, :k_max]], axis=1)
                out[:, rows] = cum[:, ks - 1].T * 2 > ks[:, None]

    step = max(1, _BLOCK_BYTES // (8 * n))
    blocks = [slice(start, start + step) for start in range(0, queries, step)]
    workers = min(len(blocks) // 2, _cpus())
    if workers > 1:
        from concurrent import futures  # it and the logging it imports: 0.7 MB

        with futures.ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(screen, blocks[w::workers]) for w in range(1, workers)]
            screen(blocks[::workers])
            for helper in helpers:
                helper.result()
    else:
        screen(blocks)
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        out[:, unsure] = _classify_module._knn_decisions_exact(grid, train_curves, train_labels, curves[unsure], ks)
    return out


def _sent(fallback_rows, decide, *args):
    """``decide(*args)`` and the multiset of query rows that it sends to the exact rule."""
    start = len(fallback_rows)
    got = decide(*args)
    return got, collections.Counter(row.tobytes() for rows in fallback_rows[start:] for row in rows)


def _assert_fallbacks_are_a_subset(fallback_rows, grid, train_curves, train_labels, curves, ks):
    """The screen decides like the exact rule and the gap screen, and every row it
    sends to the exact rule the gap screen sends too.  Returns the decisions and
    the rows that the screen and the gap screen send back."""
    args = (grid, train_curves, train_labels, curves, ks)
    got, sent = _sent(fallback_rows, knn_decisions, *args)
    want, sent_before = _sent(fallback_rows, _knn_decisions_gap_screen, *args)
    np.testing.assert_array_equal(got, _knn_decisions_cdist(*args))
    np.testing.assert_array_equal(got, want)
    assert not sent - sent_before
    return got, sent, sent_before


@pytest.mark.parametrize("n", [50, 1000])
def test_knn_screen_matches_the_exact_rule_on_the_catalog(n):
    grid = standard_grid(100)
    for model_id, model in sorted(builtin_catalog().items()):
        train = gen_model_dataset(model, n, grid, (31, n, 0))
        query = gen_model_dataset(model, 500, grid, (31, n, 1))
        args = (grid, train.curves, train.labels, query.curves, ODD_KS)
        got = _assert_screen_is_exact(*args)
        np.testing.assert_array_equal(got, _knn_decisions_gap_screen(*args), err_msg=model_id)


@pytest.mark.parametrize("model_id", ["G4", "L1-B"])
def test_knn_screen_matches_the_exact_rule_on_a_dense_grid(model_id):
    grid = standard_grid(1000)
    model = builtin_catalog()[model_id]
    train = gen_model_dataset(model, 1000, grid, (32, 0))
    query = gen_model_dataset(model, 500, grid, (32, 1))
    args = (grid, train.curves, train.labels, query.curves, ODD_KS)
    np.testing.assert_array_equal(_assert_screen_is_exact(*args), _knn_decisions_gap_screen(*args))


def _pairs(rng, twin, n_pairs=40, count=8):
    """Training curves in pairs with opposite labels, the twin from ``twin``, shuffled."""
    base = rng.normal(size=(n_pairs, count))
    curves = np.vstack([base, twin(base)])
    labels = np.repeat([0, 1], n_pairs)
    perm = rng.permutation(2 * n_pairs)
    return make_grid(count, 0, 1), curves[perm], labels[perm]


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this package's source; return its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_no_rkfda_module_imports_scipy():
    # rkfda depends on numpy alone; scipy is the tests' oracle.  Imports
    # inside functions count too, so a lazy import cannot slip back in
    src = Path(__file__).resolve().parents[1] / "src" / "rkfda"
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_bench_plan_loads_no_scipy_module(tmp_path):
    # numpy is rkfda's only dependency: scipy.linalg would cost every process
    # about 300 modules and 20 MB, and scipy.spatial, which the exact kNN
    # fallback used to import, about 0.4 s and 31 MB on its first row.  The plan
    # runs all four methods on a Gaussian, a logistic (L1-B: expit from libm,
    # not scipy.special), an OU (L1-OU: no scipy.signal) and a smoothed model,
    # and then a kNN call sends every row to the exact rule.  Its kNN calls
    # are one block each, which runs in the calling thread, so
    # concurrent.futures (and the logging it pulls in) stays unloaded too
    (tmp_path / "plan.ini").write_text(
        "[plan]\nmodels = G2 L1-B L1-OU L4-sB\nsizes = 30\nruns = 2\ntest_size = 100\n"
        "validation_size = 40\ngrid_count = 50\nmethods = RK-C RK_B-C kNN Centroid\nd_max = 3\nseed = 3\n"
    )
    # every curve has an exact twin of the other label, so at every odd k the
    # k-th and (k+1)-th neighbours of a query tie and every row falls back
    rng = np.random.default_rng(33)
    grid, curves, labels = _pairs(rng, lambda base: base.copy())
    query = rng.normal(size=(50, grid.count))
    np.savez(tmp_path / "twins.npz", curves=curves, labels=labels, query=query)
    code = (
        "import importlib, json, sys\n"
        "import numpy as np\n"
        "import rkfda.cli\n"
        "from rkfda import make_grid\n"
        "from rkfda.simulate import builtin_catalog\n"
        "builtin_catalog()\n"
        "plan, out, twins = sys.argv[1:]\n"
        "assert rkfda.cli.main(['bench', '--plan', plan, '--out', out]) == 0\n"
        "classify = importlib.import_module('rkfda.classify')\n"
        "exact, unsure = classify._knn_decisions_exact, []\n"
        "classify._knn_decisions_exact = lambda *args: unsure.append(len(args[3])) or exact(*args)\n"
        "data = np.load(twins)\n"
        "got = classify.knn_decisions(make_grid(8, 0, 1), data['curves'], data['labels'], data['query'], [1, 3, 5])\n"
        "print(json.dumps([unsure, got.tolist()]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')))\n"
    )
    out = _fresh_python(code, tmp_path / "plan.ini", tmp_path / "report.csv", tmp_path / "twins.npz")
    decided, loaded = out.splitlines()
    assert loaded == "[]"
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 17
    unsure, got = json.loads(decided)
    assert unsure == [len(query)]
    np.testing.assert_array_equal(got, _knn_decisions_cdist(grid, curves, labels, query, [1, 3, 5]))


def test_knn_screen_sends_duplicates_straddling_k_to_the_exact_rule(fallback_rows):
    rng = np.random.default_rng(33)
    grid, curves, labels = _pairs(rng, lambda base: base.copy())
    query = rng.normal(size=(200, grid.count))
    # at every odd k the k-th and (k+1)-th neighbours are copies of one curve
    got = _assert_screen_is_exact(grid, curves, labels, query, ODD_KS)
    assert sum(map(len, fallback_rows)) == len(query)
    # the index rule decides: the first copy of the nearest curve is the 1-NN
    first = np.argsort(np.linalg.norm(query[:, None] - curves[None], axis=2), axis=1, kind="stable")[:, 0]
    np.testing.assert_array_equal(got[0], labels[first])


@pytest.mark.parametrize("ks", [[1], ODD_KS])
def test_knn_screen_sends_curves_one_ulp_apart_to_the_exact_rule(ks, fallback_rows):
    rng = np.random.default_rng(34)

    def nudged(base):
        twin = base.copy()
        cols = rng.integers(0, base.shape[1], size=base.shape[0])
        rows = np.arange(base.shape[0])
        twin[rows, cols] = np.nextafter(twin[rows, cols], np.inf)
        return twin

    grid, curves, labels = _pairs(rng, nudged)
    query = rng.normal(size=(500, grid.count))
    _assert_screen_is_exact(grid, curves, labels, query, ks)
    assert sum(map(len, fallback_rows)) == len(query)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_knn_screen_falls_back_under_underflow_and_overflow(scale, fallback_rows):
    rng = np.random.default_rng(35)
    grid = make_grid(8, 0, 1)
    curves = rng.normal(size=(60, 8)) * scale
    labels = rng.integers(0, 2, size=60)
    query = rng.normal(size=(100, 8)) * scale
    _, sent, _ = _assert_fallbacks_are_a_subset(fallback_rows, grid, curves, labels, query, ODD_KS)
    assert sent


def _catalog_case(n, seed):
    grid = standard_grid(100)
    model = builtin_catalog()["L1-B"]
    train = gen_model_dataset(model, n, grid, (seed, 0))
    return grid, train.curves, train.labels, gen_model_dataset(model, 300, grid, (seed, 1)).curves


@pytest.mark.parametrize(
    "ks", [list(range(2, 21, 2)), [2, 4], [50], [1, 49, 50], list(range(1, 51))], ids=["even", "2-4", "n", "1-n", "all"]
)
def test_knn_screen_with_even_ks_and_k_equal_to_n(ks, fallback_rows):
    # an even k's vote compares the (k/2 + 1)-th class-1 curve with the
    # (k/2)-th class-0 curve; k = n compares the last ones of both classes
    _assert_fallbacks_are_a_subset(fallback_rows, *_catalog_case(50, 46), ks)


def test_knn_screen_decides_by_count_when_class_1_is_too_small(fallback_rows):
    # 3 class-1 curves of 50, each with an exact twin, so distances tie in
    # every row: from k = 7 on, j = k // 2 + 1 exceeds 3 and the vote is 0
    # by count alone, with no row sent to the exact rule
    rng = np.random.default_rng(47)
    grid = make_grid(8, 0, 1)
    base = rng.normal(size=(25, 8))
    curves = np.vstack([base, base])
    labels = np.zeros(50, dtype=int)
    labels[[3, 28, 40]] = 1
    query = rng.normal(size=(100, 8))
    ks = list(range(7, 22, 2))
    got = _assert_screen_is_exact(grid, curves, labels, query, ks)
    assert not got.any()
    assert fallback_rows == []
    _assert_fallbacks_are_a_subset(fallback_rows, grid, curves, labels, query, [1, 3, 5, 21])


@pytest.mark.parametrize("label", [0, 1])
def test_knn_screen_on_a_one_class_training_set(label, fallback_rows):
    grid, curves, _, query = _catalog_case(50, 48)
    labels = np.full(50, label)
    got, _, _ = _assert_fallbacks_are_a_subset(fallback_rows, grid, curves, labels, query, ODD_KS + [50])
    assert np.all(got == label)


@pytest.mark.parametrize("n", [20, 21])
def test_knn_screen_with_k_equal_to_n(n):
    rng = np.random.default_rng(36)
    grid = make_grid(5, 0, 1)
    curves = rng.normal(size=(n, 5))
    labels = rng.integers(0, 2, size=n)
    query = rng.normal(size=(50, 5))
    got = _assert_screen_is_exact(grid, curves, labels, query, [1, 3, n])
    assert np.all(got[-1] == int(labels.sum() * 2 > n))


@pytest.fixture
def started_threads(monkeypatch):
    """Three CPUs for this process; record the threads that knn_decisions starts."""
    real = threading.Thread.start
    started = []

    def counting(thread):
        started.append(thread)
        return real(thread)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def _block_rows(n):
    """Query rows in one block of knn_decisions against n training curves."""
    return _BLOCK_BYTES // (8 * n)


# one block - 1, one block, one block + 1, and four or six blocks, the last short
@pytest.mark.parametrize("queries", [1, 130, 131, 132, 3 * 131 + 17, 5 * 131 + 17])
def test_knn_screen_in_row_blocks_matches_the_exact_rule(queries, started_threads):
    grid = standard_grid(100)
    model = builtin_catalog()["G4"]
    train = gen_model_dataset(model, 1000, grid, (39, 0))
    step = _block_rows(train.size)
    assert step == 131
    query = gen_model_dataset(model, queries, grid, (39, 1))
    _assert_screen_is_exact(grid, train.curves, train.labels, query.curves, ODD_KS)
    # b blocks on three CPUs go to min(b // 2, 3) workers, the caller and a
    # thread for each of the rest: 1 or 2 blocks start no thread, 4 one, 6 two
    blocks = -(-queries // step)
    assert len(started_threads) == max(1, min(blocks // 2, 3)) - 1
    assert not any(thread.is_alive() for thread in started_threads)


@pytest.mark.parametrize("twin", ["copy", "one-ulp"])
def test_knn_screen_maps_fallback_rows_of_the_first_and_last_block(twin, fallback_rows, started_threads):
    rng = np.random.default_rng(40)
    grid = make_grid(8, 0, 1)
    curves = rng.normal(size=(1000, 8))
    labels = rng.integers(0, 2, size=1000)
    # two far curves, each with a twin of the opposite label: at k = 1 the
    # index rule decides, and the twins are never near a random query
    for j, twin_j, offset in ((17, 503, 50.0), (911, 4, -50.0)):
        curves[j] += offset
        curves[twin_j] = curves[j]
        if twin == "one-ulp":
            curves[twin_j, 3] = np.nextafter(curves[j, 3], np.inf)
        labels[twin_j] = 1 - labels[j]
    step = _block_rows(len(curves))
    query = rng.normal(size=(3 * step + 17, 8))
    query[0], query[-1] = curves[17], curves[911]
    _assert_screen_is_exact(grid, curves, labels, query, ODD_KS)
    np.testing.assert_array_equal(np.vstack(fallback_rows), query[[0, -1]])
    # four blocks, two workers: the caller screens the first, a helper thread the last
    assert len(started_threads) == 1


@pytest.mark.parametrize("model_id", ["G4", "L4-sB", "M3"])
def test_knn_screen_is_exact_on_one_two_and_three_workers(model_id, monkeypatch):
    grid = standard_grid(100)
    model = builtin_catalog()[model_id]
    train = gen_model_dataset(model, 1000, grid, (42, 0))
    step = _block_rows(train.size)
    # one row, one block - 1, one block, one block + 1, four blocks and six,
    # the last of each short; decisions of a row do not depend on the others
    counts = [1, step - 1, step, step + 1, 3 * step + 17, 5 * step + 17]
    query = gen_model_dataset(model, counts[-1], grid, (42, 1)).curves
    args = (grid, train.curves, train.labels, query, ODD_KS)
    want = _knn_decisions_exact(*args)
    np.testing.assert_array_equal(want, _knn_decisions_cdist(*args))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        for queries in counts:
            got = knn_decisions(grid, train.curves, train.labels, query[:queries], ODD_KS)
            np.testing.assert_array_equal(got, want[:, :queries], err_msg=f"{cpus} CPUs, {queries} queries")


def test_knn_screen_keeps_no_buffer_across_calls(started_threads):
    # a split call, a one-block call on other curves, and the first again:
    # each call sizes and fills its own buffers
    grid = standard_grid(100)
    model = builtin_catalog()["L1-B"]
    train = gen_model_dataset(model, 1000, grid, (43, 0))
    step = _block_rows(train.size)
    calls = [gen_model_dataset(model, m, grid, (43, i)).curves for i, m in ((1, 3 * step + 17), (2, 5))]
    calls.append(calls[0])
    for query in calls:
        _assert_screen_is_exact(grid, train.curves, train.labels, query, ODD_KS)
    assert len(started_threads) == 2  # one helper for each four-block call


def test_knn_screen_raises_what_a_helper_thread_raises(monkeypatch, started_threads):
    module = importlib.import_module("rkfda.classify")
    smallest = module._smallest
    caller = threading.get_ident()

    def failing(d2, count):
        if threading.get_ident() != caller:
            raise MemoryError("helper thread")
        return smallest(d2, count)

    monkeypatch.setattr(module, "_smallest", failing)
    grid = standard_grid(100)
    train = gen_model_dataset(builtin_catalog()["G4"], 1000, grid, (44, 0))
    query = gen_model_dataset(builtin_catalog()["G4"], 4 * _block_rows(train.size), grid, (44, 1))
    with pytest.raises(MemoryError, match="helper thread"):
        knn_decisions(grid, train.curves, train.labels, query.curves, ODD_KS)
    assert len(started_threads) == 1
    assert not started_threads[0].is_alive()


def test_split_knn_call_loads_no_concurrent_futures():
    # helpers are plain threads: a call of 4 * 131 + 17 queries against 1000
    # training curves is five blocks, two workers on two CPUs
    code = (
        "import os, sys, threading\n"
        "import numpy as np\n"
        "from rkfda import make_grid\n"
        "from rkfda.classify import knn_decisions\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "start, started = threading.Thread.start, []\n"
        "threading.Thread.start = lambda thread: started.append(thread) or start(thread)\n"
        "rng = np.random.default_rng(45)\n"
        "labels = rng.integers(0, 2, size=1000)\n"
        "knn_decisions(make_grid(100, 0, 1), rng.normal(size=(1000, 100)), labels,\n"
        "              rng.normal(size=(4 * 131 + 17, 100)), [1, 3, 5])\n"
        "print(len(started), sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))\n"
    )
    assert _fresh_python(code) == "1 []"


def test_knn_decisions_from_concurrent_user_threads_are_exact():
    grid = standard_grid(100)
    model = builtin_catalog()["L1-B"]
    train = gen_model_dataset(model, 1000, grid, (41, 0))
    queries = [gen_model_dataset(model, 400, grid, (41, i)).curves for i in (1, 2, 3)]
    got = [None] * len(queries)

    def decide(i):
        got[i] = knn_decisions(grid, train.curves, train.labels, queries[i], ODD_KS)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=decide, args=(i,)) for i in range(len(queries))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for query, decided in zip(queries, got):
        np.testing.assert_array_equal(decided, _knn_decisions_cdist(grid, train.curves, train.labels, query, ODD_KS))


# The exact rule as it stood before one stable sort replaced its partial
# sort and tie re-rank, kept as the oracle of that replacement.
def _knn_decisions_partitioned(grid: Grid, train_curves, train_labels, curves, ks) -> np.ndarray:
    """The kNN rule that :func:`knn_decisions` reproduces, from exact ranks.

    Same arguments and result.  Distances come from ``cdist`` on the
    sqrt(dt)-scaled curves.  One partial sort keeps the ``max(ks)`` nearest curves of each row,
    and a cumulative sum of their labels in (distance, training index) order
    gives every vote.  Rows in which further curves tie the ``max(ks)``-th
    distance are ranked in full, so exact ties always go to the smaller
    training index.
    """
    ks = np.asarray(ks, dtype=int)
    train_labels = np.asarray(train_labels)
    k_max = int(ks.max())
    scale = math.sqrt(grid.spacing)
    dist = scipy.spatial.distance.cdist(np.asarray(curves) * scale, np.asarray(train_curves) * scale)
    nearest = np.argpartition(dist, k_max - 1, axis=1)[:, :k_max]
    nearest.sort(axis=1)  # index order, so the stable sort below breaks ties by index
    near_dist = np.take_along_axis(dist, nearest, axis=1)
    # rows where the partition had to choose among curves tying its last distance
    tied = np.flatnonzero(np.count_nonzero(dist <= near_dist.max(axis=1)[:, None], axis=1) > k_max)
    if tied.size:
        nearest[tied] = np.argsort(dist[tied], axis=1, kind="stable")[:, :k_max]
        near_dist[tied] = np.take_along_axis(dist[tied], nearest[tied], axis=1)
    order = np.argsort(near_dist, axis=1, kind="stable")
    cum = np.cumsum(train_labels[np.take_along_axis(nearest, order, axis=1)], axis=1)
    return (cum[:, ks - 1].T * 2 > ks[:, None]).astype(int)


def _tie_cases():
    """Training and query sets full of exact and near distance ties."""
    rng = np.random.default_rng(42)
    for name, twin in (("copy", lambda base: base.copy()), ("one-ulp", lambda base: np.nextafter(base, np.inf))):
        grid, curves, labels = _pairs(rng, twin)
        query = np.vstack([curves[:20], rng.normal(size=(100, grid.count))])
        yield name, grid, curves, labels, query
    grid = make_grid(3, 0, 1)
    curves = rng.integers(-2, 3, size=(300, 3)).astype(float)  # 125 distinct curves
    yield "integers", grid, curves, rng.integers(0, 2, size=300), rng.integers(-3, 4, size=(200, 3)).astype(float)
    for scale in (1e-160, 1e160):
        grid, curves, labels = _pairs(rng, lambda base: base.copy())
        yield f"scale-{scale:g}", grid, curves * scale, labels, rng.normal(size=(100, grid.count)) * scale


@pytest.mark.parametrize("case", list(_tie_cases()), ids=lambda case: case[0])
@pytest.mark.parametrize("ks", [ODD_KS, [2, 4], None], ids=["odd", "even", "n"])
def test_knn_screen_sends_a_subset_of_the_gap_screens_rows_on_ties(case, ks, fallback_rows):
    _, grid, curves, labels, query = case
    _assert_fallbacks_are_a_subset(fallback_rows, grid, curves, labels, query, ks or [len(curves)])


@pytest.mark.parametrize("ks", [ODD_KS, [2, 4]], ids=["odd", "even"])
def test_knn_screen_decides_integer_ties_that_the_gap_screen_sends_back(ks, fallback_rows):
    # integer-valued curves tie in many distances: the gap screen sends back
    # every row with a tie between its k-th and (k+1)-th distances, the screen
    # only those whose two compared order statistics (nearly) tie
    (_, grid, curves, labels, query), = (case for case in _tie_cases() if case[0] == "integers")
    _, sent, sent_before = _assert_fallbacks_are_a_subset(fallback_rows, grid, curves, labels, query, ks)
    assert sum(sent.values()) < sum(sent_before.values())


@pytest.mark.parametrize("case", list(_tie_cases()), ids=lambda case: case[0])
def test_knn_exact_rule_matches_the_partitioned_rule_on_ties(case):
    _, grid, curves, labels, query = case
    for ks in (ODD_KS, list(range(1, len(curves) + 1)), [len(curves)]):
        np.testing.assert_array_equal(
            _knn_decisions_exact(grid, curves, labels, query, ks),
            _knn_decisions_partitioned(grid, curves, labels, query, ks),
        )


def test_knn_exact_rule_matches_the_partitioned_rule_on_the_catalog():
    grid = standard_grid(100)
    for model_id, model in sorted(builtin_catalog().items()):
        train = gen_model_dataset(model, 200, grid, (43, 0))
        query = gen_model_dataset(model, 100, grid, (43, 1))
        args = (grid, train.curves, train.labels, query.curves, ODD_KS)
        np.testing.assert_array_equal(_knn_decisions_exact(*args), _knn_decisions_partitioned(*args), err_msg=model_id)


def _exact_rule_cases():
    """The tie cases, and grids of 2 and 1000 points and a single training curve."""
    yield from _tie_cases()
    rng = np.random.default_rng(44)
    for count, n in ((2, 200), (1000, 200), (100, 1)):
        curves = rng.normal(size=(n, count))
        yield f"G{count}-n{n}", make_grid(count, 0, 1), curves, rng.integers(0, 2, size=n), rng.normal(size=(60, count))


@pytest.mark.parametrize("case", list(_exact_rule_cases()), ids=lambda case: case[0])
def test_knn_exact_rule_matches_the_cdist_rule_bit_for_bit(case):
    # the grid-order sum gives cdist's distances bit for bit, overflow to inf
    # included, so the votes agree at every k
    _, grid, curves, labels, query = case
    n = len(curves)
    for ks in ([k for k in ODD_KS if k <= n], list(range(1, n + 1))):
        np.testing.assert_array_equal(
            _knn_decisions_exact(grid, curves, labels, query, ks),
            _knn_decisions_cdist(grid, curves, labels, query, ks),
        )


def test_knn_exact_rule_matches_the_cdist_rule_on_the_catalog():
    grid = standard_grid(100)
    for model_id, model in sorted(builtin_catalog().items()):
        train = gen_model_dataset(model, 200, grid, (45, 0))
        query = gen_model_dataset(model, 100, grid, (45, 1))
        args = (grid, train.curves, train.labels, query.curves, ODD_KS)
        np.testing.assert_array_equal(_knn_decisions_exact(*args), _knn_decisions_cdist(*args), err_msg=model_id)


def test_knn_screen_on_a_single_query_row():
    grid = standard_grid(100)
    model = builtin_catalog()["G4"]
    train = gen_model_dataset(model, 200, grid, (37, 0))
    query = gen_model_dataset(model, 1, grid, (37, 1))
    assert _assert_screen_is_exact(grid, train.curves, train.labels, query.curves, ODD_KS).shape == (11, 1)


@pytest.mark.parametrize("seed", range(6))
def test_knn_screen_on_exact_distance_ties(seed, fallback_rows):
    ds, expected = _tied_neighbours_case(seed)
    query = np.vstack([np.zeros((1, 4)), np.random.default_rng(seed).normal(size=(30, 4))])
    ks = list(range(1, ds.size + 1))
    got = _assert_screen_is_exact(ds.grid, ds.curves, ds.labels, query, ks)
    assert [got[k - 1, 0] for k in expected] == list(expected.values())
    assert fallback_rows  # the origin's ties at least


def test_knn_training_curves_must_be_finite():
    g = make_grid(2, 0, 1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            KNNClassifier(grid=g, train_curves=[[0.0, 1.0], [bad, 0.0]], train_labels=[0, 1], k=1)


def test_knn_training_labels_must_be_0_or_1():
    g = make_grid(2, 0, 1)
    curves = [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        KNNClassifier(grid=g, train_curves=curves, train_labels=[0, 1, 2], k=1)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        knn_decisions(g, curves, [0, 1, 2], np.zeros((1, 2)), [1])


def _knn_case(n=20, count=10, seed=49):
    rng = np.random.default_rng(seed)
    return make_grid(count, 0, 1), rng.normal(size=(n, count)), np.arange(n) % 2, rng.normal(size=(5, count))


@pytest.mark.parametrize(
    "case, match",
    [
        (lambda g, c, y, q: (g, c, y[:18], q, [1]), "18 training labels for 20 training curves"),
        (lambda g, c, y, q: (g, c[:18], y, q, [1]), "20 training labels for 18 training curves"),
        (lambda g, c, y, q: (g, c, y[:, None], q, [1]), "20 training labels for 20 training curves"),
        (lambda g, c, y, q: (g, c[:, :8], y, q[:, :8], [1]), "training curves must be 2-D"),
        (lambda g, c, y, q: (g, c[0], y[:1], q, [1]), "training curves must be 2-D"),
        (lambda g, c, y, q: (g, c, y, q[:, :8], [1]), "query curves must be 2-D"),
        (lambda g, c, y, q: (g, c, y, q[0], [1]), "query curves must be 2-D"),
        (lambda g, c, y, q: (g, c, y, q, [2.7]), "ks must be a sequence of integers"),
        (lambda g, c, y, q: (g, c, y, q, [3.0]), "ks must be a sequence of integers"),
        (lambda g, c, y, q: (g, c, y, q, [1, True]), "ks must be a sequence of integers"),
        (lambda g, c, y, q: (g, c, y, q, np.array([True])), "ks must be a sequence of integers"),
        (lambda g, c, y, q: (g, c, y, q, 3), "ks must be a sequence of integers"),
    ],
    ids=["few-labels", "many-labels", "2-D-labels", "narrow", "1-D-train", "narrow-query", "1-D-query",
         "k-2.7", "k-3.0", "k-True", "k-bool-array", "k-scalar"],
)
def test_knn_decisions_reject_malformed_input(case, match):
    with pytest.raises(ValueError, match=match):
        knn_decisions(*case(*_knn_case()))


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"k": 2.5}, "k must be an integer"),
        ({"k": True}, "k must be an integer"),
        ({"k": np.float64(3.0)}, "k must be an integer"),
        ({"train_labels": np.arange(18) % 2}, "18 training labels for 20 training curves"),
        ({"grid": make_grid(12, 0, 1)}, "training curves must be 2-D"),
    ],
    ids=["k-2.5", "k-True", "k-float64", "few-labels", "grid"],
)
def test_knn_classifier_rejects_malformed_fields(fields, match):
    grid, curves, labels, _ = _knn_case()
    with pytest.raises(ValueError, match=match):
        KNNClassifier(**{"grid": grid, "train_curves": curves, "train_labels": labels, "k": 3, **fields})


def test_knn_classifier_takes_numpy_integer_k():
    grid, curves, labels, query = _knn_case()
    clf = KNNClassifier(grid=grid, train_curves=curves, train_labels=labels, k=np.int64(3))
    np.testing.assert_array_equal(clf.decide(query), knn_decisions(grid, curves, labels, query, [3])[0])


def test_query_curves_must_be_finite():
    g = make_grid(2, 0, 1)
    ds = _dataset([[0.0, 0.0], [0.1, 0.0]], [[1.0, 1.0], [1.1, 1.0]], grid=g)
    bad = np.array([[np.nan, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        knn_decisions(g, ds.curves, ds.labels, bad, [1])
    for clf in (train_knn(ds, 1), train_rkc(ds, g.points[:1]), train_centroid(ds, 1)):
        with pytest.raises(ValueError, match="finite"):
            classify_batch(clf, [np.inf, 0.0])
        with pytest.raises(ValueError, match="finite"):
            classify_batch(clf, bad)


def test_train_knn_needs_both_classes():
    g = make_grid(2, 0, 1)
    for labels in ([0, 0, 0], [1, 1, 1]):
        ds = LabeledDataset(grid=g, curves=np.arange(6.0).reshape(3, 2), labels=labels)
        with pytest.raises(TrainingError, match="both classes must be present"):
            train_knn(ds, 1)


def test_train_knn_keeps_the_simulated_curves_without_a_copy():
    ds = gen_model_dataset(builtin_catalog()["G4"], 50, standard_grid(20), 38)
    assert np.shares_memory(ds.curves, train_knn(ds, 3).train_curves)


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
    s = probes @ clf.psi_curve * g.spacing
    expected = (np.abs(s - clf.proj1) < np.abs(s - clf.proj0)).astype(int)
    np.testing.assert_array_equal(classify_batch(clf, probes), expected)
    assert classify_batch(clf, moments.m0).tolist() == [0]
    assert classify_batch(clf, moments.m1).tolist() == [1]
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
    np.testing.assert_array_equal(
        centroid_decisions(fast, validation.curves), [c.decide(validation.curves) for c in fast]
    )
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


@pytest.mark.parametrize("n", [50, 200])
def test_centroid_classifiers_match_the_scipy_eigensolve_on_the_catalog(n, monkeypatch):
    # n = 50 < G = 100 diagonalizes the n x n Z Z^T, n = 200 the G x G Z^T Z;
    # the oracle is the same code with scipy's eigh (LAPACK syevr, where
    # numpy's runs syevd)
    grid = standard_grid(100)
    orders = range(1, 21)
    for model_id, model in builtin_catalog().items():
        entropy = _model_entropy(model_id)
        for run in range(2):
            train = gen_model_dataset(model, n, grid, (0, entropy, n, run, 0))
            validation = gen_model_dataset(model, 200, grid, (0, entropy, n, run, 1))
            try:
                got = centroid_classifiers(train, orders, clip=True)
            except TrainingError:
                continue
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", lambda a: scipy.linalg.eigh(a, check_finite=False))
                want = centroid_classifiers(train, orders, clip=True)
            assert [c.order for c in got] == [c.order for c in want]
            for a, b in zip(got, want):
                # the largest move seen here is 3e-7 of max |psi|, and 1.6e-5
                # over runs 0-39 of every cell of plans/full-protocol.ini
                scale = np.abs(b.psi_curve).max()
                np.testing.assert_allclose(a.psi_curve, b.psi_curve, rtol=0.0, atol=1e-4 * scale)
            np.testing.assert_array_equal(
                centroid_decisions(got, validation.curves), centroid_decisions(want, validation.curves)
            )


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
    with pytest.raises(ValueError):
        centroid_decisions([], ds.curves)
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
        classify_batch(clf, np.zeros(3))
    # same size, other times: still a mismatch; equal times in another Grid object are accepted
    shifted = LabeledDataset(grid=make_grid(2, 0, 2), curves=np.zeros((2, 2)), labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="grid"):
        error_rate(clf, shifted)
    equal = LabeledDataset(grid=make_grid(2, 0, 1), curves=np.ones((2, 2)), labels=np.array([0, 1]))
    assert error_rate(clf, equal) == 0.5


def test_the_package_attribute_classify_is_the_module():
    import rkfda

    assert inspect.ismodule(rkfda.classify)
    assert rkfda.classify is importlib.import_module("rkfda.classify")
