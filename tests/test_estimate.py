import tracemalloc

import numpy as np
import pytest

from rkfda import LabeledDataset, TrainingError, make_grid
from rkfda.estimate import class_moments, pooled_cov
from rkfda.kernels import BrownianKernel
from rkfda.simulate import builtin_catalog, gen_model_dataset, gen_process, standard_grid


def _dataset(curves0, curves1, grid=None):
    curves0 = np.atleast_2d(np.asarray(curves0, dtype=float))
    curves1 = np.atleast_2d(np.asarray(curves1, dtype=float))
    g = grid if grid is not None else make_grid(curves0.shape[1], 0, 1)
    curves = np.vstack([curves0, curves1])
    labels = np.array([0] * len(curves0) + [1] * len(curves1))
    return LabeledDataset(grid=g, curves=curves, labels=labels)


def test_class_moments_single_curves():
    ds = _dataset([[0.0, 0.0]], [[2.0, 4.0]])
    m = class_moments(ds)
    np.testing.assert_allclose(m.diff, [2.0, 4.0])


def test_class_moments_averaging():
    ds = _dataset([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [3.0, 3.0]])
    np.testing.assert_allclose(class_moments(ds).diff, [2.0, 2.0])


def test_class_moments_identical_classes():
    rows = [[1.0, -2.0], [0.5, 3.0]]
    ds = _dataset(rows, rows)
    np.testing.assert_allclose(class_moments(ds).diff, [0.0, 0.0], atol=0)


def test_class_moments_requires_both_classes():
    g = make_grid(2, 0, 1)
    ds = LabeledDataset(grid=g, curves=np.zeros((2, 2)), labels=np.array([1, 1]))
    with pytest.raises(ValueError):
        class_moments(ds)


def test_pooled_cov_sums_per_class_estimates():
    g = make_grid(2, 0, 1)
    # only the first grid point matters; second column constant
    ds = _dataset([[0.0, 0.0], [2.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]], grid=g)
    c = pooled_cov(ds, [g.points[0]])
    np.testing.assert_allclose(c, [[2.0]])  # per-class variance 1 each, summed


def test_pooled_cov_asymmetric_classes():
    g = make_grid(2, 0, 1)
    ds = _dataset([[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]], grid=g)
    np.testing.assert_allclose(pooled_cov(ds, [g.points[0]]), [[1.0]])


def test_pooled_cov_requires_two_per_class():
    ds = _dataset([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        pooled_cov(ds)


def _two_pass_oracle(ds, idx):
    # brute-force double loop over entries and samples
    d = len(idx)
    out = np.zeros((d, d))
    for label in (0, 1):
        x = ds.class_curves(label)[:, idx]
        xbar = x.mean(axis=0)
        n = x.shape[0]
        for i in range(d):
            for j in range(d):
                out[i, j] += sum(
                    (x[l, i] - xbar[i]) * (x[l, j] - xbar[j]) for l in range(n)
                ) / n
    return out


def test_pooled_cov_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    g = make_grid(3, 0, 1)
    ds = _dataset(rng.normal(size=(7, 3)), rng.normal(size=(9, 3)), grid=g)
    got = pooled_cov(ds)
    want = _two_pass_oracle(ds, [0, 1, 2])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_pooled_cov_symmetric_psd():
    rng = np.random.default_rng(21)
    g = make_grid(6, 0, 1)
    ds = _dataset(rng.normal(size=(15, 6)), rng.normal(size=(12, 6)), grid=g)
    c = pooled_cov(ds)
    np.testing.assert_allclose(c, c.T, atol=0)
    assert np.linalg.eigvalsh(c).min() >= -1e-12 * np.trace(c)


def test_pooled_cov_scaling():
    rng = np.random.default_rng(4)
    g = make_grid(4, 0, 1)
    x0, x1 = rng.normal(size=(6, 4)), rng.normal(size=(8, 4))
    base = pooled_cov(_dataset(x0, x1, grid=g))
    scaled = pooled_cov(_dataset(3.0 * x0, 3.0 * x1, grid=g))
    np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)
    np.testing.assert_allclose(
        class_moments(_dataset(3.0 * x0, 3.0 * x1, grid=g)).diff,
        3.0 * class_moments(_dataset(x0, x1, grid=g)).diff,
        rtol=1e-12,
    )


def test_pooled_cov_brownian_consistency():
    # at 20000 curves per class, half the pooled estimate approaches min(s, t)
    grid = make_grid(2, 0.5, 1.0)
    rng = np.random.default_rng(123)
    n = 20000
    curves = np.cumsum(
        rng.standard_normal((2 * n, 2)) * np.sqrt(np.diff(grid.points, prepend=0.0)), axis=1
    )
    ds = LabeledDataset(grid=grid, curves=curves, labels=np.array([0] * n + [1] * n))
    half = pooled_cov(ds) / 2.0
    assert half[0, 1] == pytest.approx(0.5, abs=0.02)
    assert half[0, 0] == pytest.approx(0.5, abs=0.02)
    assert half[1, 1] == pytest.approx(1.0, abs=0.02)


def test_gen_process_matches_pooled_estimate_in_the_limit():
    # oracle Gram provider and the empirical pooled estimate agree on big samples
    grid = make_grid(2, 0.25, 1.0)
    rng = np.random.default_rng(5)
    n = 20000
    curves = np.stack([gen_process(BrownianKernel(), grid, rng) for _ in range(100)])
    assert curves.shape == (100, 2)
    big = np.cumsum(
        rng.standard_normal((2 * n, 2)) * np.sqrt(np.diff(grid.points, prepend=0.0)), axis=1
    )
    ds = LabeledDataset(grid=grid, curves=big, labels=np.array([0] * n + [1] * n))
    np.testing.assert_allclose(
        pooled_cov(ds) / 2.0, np.minimum.outer(grid.points, grid.points), atol=0.02
    )


def test_centred_curves_factor_the_pooled_covariance():
    rng = np.random.default_rng(8)
    ds = _dataset(rng.normal(size=(5, 7)), rng.normal(size=(9, 7)) + 1.0)
    z = ds.moments.z
    assert z.shape == (14, 7)
    np.testing.assert_allclose(z.T @ z, pooled_cov(ds), rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        _dataset([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]]).moments.require_covariance()


# The class summary is computed once per dataset and kept.


def _per_call_moments(ds):
    """m0, m1, diff and Z computed from two class splits, with no cached summary."""
    x0, x1 = ds.class_curves(0), ds.class_curves(1)
    m0, m1 = x0.mean(axis=0), x1.mean(axis=0)
    blocks = [
        (ds.class_curves(label) - mean) / np.sqrt(n)
        for label, mean, n in ((0, m0, len(x0)), (1, m1, len(x1)))
    ]
    return m0, m1, m1 - m0, np.vstack(blocks)


def test_class_summary_matches_the_per_call_formulas_bit_for_bit():
    smallest_class = []
    for model_id, model in sorted(builtin_catalog().items()):
        ds = gen_model_dataset(model, 50, standard_grid(100), (5, 0))
        m = class_moments(ds)
        for got, want in zip((m.m0, m.m1, m.diff, m.z), _per_call_moments(ds)):
            np.testing.assert_array_equal(got, want)
        assert (m.n0, m.n1) == (len(ds.class_curves(0)), len(ds.class_curves(1)))
        assert ds.moments is m
        smallest_class.append(min(m.n0, m.n1))
    assert min(smallest_class) <= 10  # some draws are far from balanced


@pytest.mark.parametrize("n0,n1", [(1, 1), (1, 12), (12, 1), (3, 40), (40, 3), (17, 17)])
def test_one_copy_summary_matches_the_two_split_formula(n0, n1):
    rng = np.random.default_rng(100 * n0 + n1)
    labels = rng.permutation(np.repeat([0, 1], [n0, n1]))  # classes interleaved
    curves = 3.0 * rng.normal(size=(n0 + n1, 13)) + rng.uniform(-5, 5, size=13)
    ds = LabeledDataset(grid=make_grid(13, 0, 1), curves=curves, labels=labels)
    m = ds.moments
    assert (m.n0, m.n1) == (n0, n1)
    for got, want in zip((m.m0, m.m1, m.diff, m.z), _per_call_moments(ds)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_class_summary_holds_one_copy_of_the_curves():
    rng = np.random.default_rng(10)
    ds = LabeledDataset(grid=make_grid(200, 0, 1), curves=rng.normal(size=(500, 200)),
                        labels=rng.integers(0, 2, size=500))
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        m = ds.moments
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the two-split formula held about three copies at its peak
    assert m.z.nbytes <= peak < 1.5 * ds.curves.nbytes


def test_class_summary_is_computed_once_and_read_only():
    rng = np.random.default_rng(9)
    ds = _dataset(rng.normal(size=(4, 5)), rng.normal(size=(6, 5)))
    m = class_moments(ds)
    assert class_moments(ds) is m and ds.moments is m
    for name in ("m0", "m1", "diff", "z"):
        values = getattr(m, name)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


def test_a_one_class_dataset_has_no_summary_on_any_access():
    ds = LabeledDataset(grid=make_grid(2, 0, 1), curves=np.zeros((3, 2)), labels=np.array([0, 0, 0]))
    for _ in range(2):  # the failure is not cached: each access raises again
        with pytest.raises(TrainingError, match="both classes must be present"):
            class_moments(ds)
    with pytest.raises(TrainingError):
        ds.moments


def test_one_class_0_curve_gives_moments_but_no_centred_curves():
    ds = _dataset([[0.0, 1.0]], [[1.0, 1.0], [2.0, 3.0]])
    m = class_moments(ds)
    assert (m.n0, m.n1) == (1, 2)
    np.testing.assert_array_equal(m.diff, [1.5, 1.0])
    with pytest.raises(TrainingError, match="class 0 needs at least 2 samples"):
        m.require_covariance()
