import functools
import math

import numpy as np
import pytest
import scipy.linalg

from rkfda import (
    BrownianBridgeKernel,
    BrownianKernel,
    OrnsteinUhlenbeckKernel,
    SingularMatrixError,
    discretized_eigen,
    gram,
    kernel_eval,
    mahalanobis_psi,
    make_grid,
    solve_spd,
)
from rkfda.bench import _model_entropy
from rkfda.estimate import pooled_cov
from rkfda.kernels import _solve_lower
from rkfda.select import SelectionConfig, greedy_select, oracle_source
from rkfda.simulate import SmoothedBrownian, builtin_catalog, gen_model_dataset, standard_grid

EPS = np.finfo(float).eps

# Knot values of the four-bump mean used across the suite, computed by hand
# from the closed-form triangular pieces.
TOY_KNOTS = np.array([0.25, 0.375, 0.5, 0.75, 1.0])
TOY_MEAN_AT_KNOTS = np.array(
    [
        0.25 - math.sqrt(2) / 4,
        0.375 - math.sqrt(2) / 8 - 0.25,
        0.5,
        0.25 + math.sqrt(2) / 4,
        0.0,
    ]
)


def test_kernel_eval_values():
    assert kernel_eval(BrownianKernel(), 0.3, 0.7) == pytest.approx(0.3)
    assert kernel_eval(BrownianBridgeKernel(), 0.5, 0.5) == pytest.approx(0.25)
    assert kernel_eval(OrnsteinUhlenbeckKernel(), 0.2, 0.2) == pytest.approx(1.0)
    assert kernel_eval(OrnsteinUhlenbeckKernel(sigma2=2.5), 0.3, 0.3) == pytest.approx(2.5)


def test_gram_brownian_entries():
    k = gram(BrownianKernel(), [0.25, 0.5, 1.0])
    np.testing.assert_allclose(
        k, [[0.25, 0.25, 0.25], [0.25, 0.5, 0.5], [0.25, 0.5, 1.0]]
    )


def test_gram_single_point():
    np.testing.assert_allclose(gram(BrownianKernel(), [0.5]), [[0.5]])


def test_gram_ou_entries():
    k = gram(OrnsteinUhlenbeckKernel(1.0, 1.0), [0.0, 1.0])
    np.testing.assert_allclose(k, [[1.0, math.exp(-1)], [math.exp(-1), 1.0]])


def test_gram_rejects_duplicates():
    with pytest.raises(ValueError):
        gram(BrownianKernel(), [0.5, 0.5])


def test_solve_spd_identity():
    np.testing.assert_allclose(solve_spd(np.eye(2), np.array([3.0, 4.0])), [3.0, 4.0])


def test_solve_spd_two_by_two():
    # det = 0.25, solved by hand
    x = solve_spd(np.array([[0.5, 0.5], [0.5, 1.0]]), np.array([0.5, 1.0]))
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)


def test_solve_spd_rank_one_is_singular():
    # the factorization itself fails: the second pivot is exactly 0
    with pytest.raises(SingularMatrixError):
        solve_spd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]))


def test_solve_spd_pivot_below_the_floor_is_singular():
    # Cholesky succeeds, but the second pivot's square, about 1e-14, is below
    # DEGENERATE_RTOL times its diagonal entry
    with pytest.raises(SingularMatrixError):
        solve_spd(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.array([1.0, 1.0]))


def test_solve_spd_pivot_above_the_floor_solves():
    # the second pivot's square, about 1e-10, is a hundred times the floor
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    e = a[1, 1] - 1.0  # the stored excess, exactly
    np.testing.assert_allclose(solve_spd(a, np.array([1.0, 0.0])), [1.0 + 1.0 / e, -1.0 / e], rtol=1e-9)


def test_solve_spd_zero_matrix_is_singular():
    with pytest.raises(SingularMatrixError):
        solve_spd(np.zeros((1, 1)), np.array([1.0]))


def test_mahalanobis_psi_scalar():
    assert mahalanobis_psi([0.5], [[0.5]]) == pytest.approx(0.5)


def test_mahalanobis_psi_zero_for_a_zero_mean():
    assert mahalanobis_psi([0.0, 0.0], [[0.5, 0.5], [0.5, 1.0]]) == 0.0


def test_mahalanobis_psi_two_points():
    k = np.array([[0.5, 0.5], [0.5, 1.0]])
    assert mahalanobis_psi([0.5, 1.0], k) == pytest.approx(1.0)


def test_mahalanobis_psi_toy_knots():
    # independent oracle: plain dense solve on the hand-computed knot values
    k = np.minimum.outer(TOY_KNOTS, TOY_KNOTS)
    oracle = TOY_MEAN_AT_KNOTS @ np.linalg.solve(k, TOY_MEAN_AT_KNOTS)
    assert oracle == pytest.approx(4.0, abs=1e-9)
    assert mahalanobis_psi(TOY_MEAN_AT_KNOTS, gram(BrownianKernel(), TOY_KNOTS)) == pytest.approx(
        4.0, abs=1e-9
    )


def test_gram_symmetry_and_psd():
    rng = np.random.default_rng(42)
    for spec in (BrownianKernel(), BrownianBridgeKernel(), OrnsteinUhlenbeckKernel(2.0, 0.5)):
        pts = np.sort(rng.uniform(0.01, 1.0, size=8))
        pts += np.arange(8) * 1e-6  # keep distinct
        k = gram(spec, pts)
        np.testing.assert_allclose(k, k.T, atol=0)
        w = np.linalg.eigvalsh(k)
        assert w.min() >= -1e-10 * np.trace(k)


def test_psi_scaling_invariance():
    # psi(c*m, c^2*K) == psi(m, K) for c > 0
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.integers(1, 6)
        a = rng.normal(size=(d, d + 2))
        k = a @ a.T + 1e-6 * np.eye(d)
        m = rng.normal(size=d)
        c = rng.uniform(0.1, 10.0)
        psi = mahalanobis_psi(m, k)
        psi_scaled = mahalanobis_psi(c * m, c * c * k)
        assert psi_scaled == pytest.approx(psi, rel=1e-9)


def test_psi_monotone_under_augmentation():
    # adding points can only increase the separation (Schur complement)
    rng = np.random.default_rng(11)
    for spec in (BrownianKernel(), OrnsteinUhlenbeckKernel()):
        for _ in range(20):
            pts = np.sort(rng.choice(np.arange(1, 100), size=6, replace=False) / 100.0)
            m = rng.normal(size=6)
            sub = sorted(rng.choice(6, size=3, replace=False))
            psi_small = mahalanobis_psi(m[sub], gram(spec, pts[sub]))
            psi_big = mahalanobis_psi(m, gram(spec, pts))
            assert psi_small <= psi_big + 1e-9


def test_discretized_eigen_brownian_top_eigenvalues():
    eigen = discretized_eigen(BrownianKernel(), make_grid(200, 0, 1))
    assert eigen.eigenvalues[0] == pytest.approx(4 / math.pi**2, rel=0.01)
    assert eigen.eigenvalues[1] / eigen.eigenvalues[0] == pytest.approx(1 / 9, rel=0.02)


def test_discretized_eigen_orthonormality():
    g = make_grid(120, 0, 1)
    eigen = discretized_eigen(BrownianKernel(), g)
    inner = eigen.eigenfunctions @ eigen.eigenfunctions.T * g.spacing
    np.testing.assert_allclose(inner, np.eye(g.count), atol=1e-6)


def test_truncated_reconstruction_converges_to_gram():
    g = make_grid(60, 0, 1)
    spec = OrnsteinUhlenbeckKernel(1.5, 0.8)
    eigen = discretized_eigen(spec, g)
    k = gram(spec, g.points)
    full = eigen.truncated_kernel(g.count)
    assert np.max(np.abs(full - k)) < 1e-6
    partial = eigen.truncated_kernel(10)
    assert np.max(np.abs(partial - k)) > np.max(np.abs(full - k))


def test_eigenfunction_sign_convention():
    eigen = discretized_eigen(BrownianKernel(), make_grid(50, 0, 1))
    for row in eigen.eigenfunctions[:10]:
        nz = np.nonzero(np.abs(row) > 1e-12 * np.abs(row).max())[0]
        assert row[nz[0]] > 0


# scipy.linalg is the oracle for the numpy linear algebra of rkfda.kernels.


@functools.cache
def _bench_selection(model_id, run):
    """Training set of the bench's streams (plan seed 0, n = 200, G = 1000) and its greedy selection."""
    train = gen_model_dataset(
        builtin_catalog()[model_id], 200, standard_grid(1000), (0, _model_entropy(model_id), 200, run, 0)
    )
    return train, greedy_select(train, SelectionConfig(d_max=10))


def _random_factor(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d + 3))
    return np.linalg.cholesky(a @ a.T)


@pytest.mark.parametrize("model_id, run, d", [
    *((None, None, d) for d in (1, 2, 5, 10, 30)),
    # greedy-scan factors whose covariance L L^T has condition number above 1e12
    ("L1-ssB", 5, 10),
    ("L4-sB", 0, 10),
])
def test_solve_lower_matches_scipy_solve_triangular(model_id, run, d):
    if model_id is None:
        factor = _random_factor(d, seed=d)
    else:
        factor = _bench_selection(model_id, run)[1].factor
        assert factor.shape == (d, d) and np.linalg.cond(factor) ** 2 > 1e12
    rng = np.random.default_rng(d)
    for rhs in (rng.normal(size=d), rng.normal(size=(d, 7))):
        for transpose in (False, True):
            got = _solve_lower(factor, rhs, transpose=transpose)
            want = scipy.linalg.solve_triangular(factor, rhs, lower=True, trans=int(transpose))
            assert got.shape == want.shape
            # Each substitution's forward error is at most about (d eps / 2)
            # || |L^-1| |L| |x| ||, Skeel's condition number of L times |x|
            # (transposed for L^T); two solutions differ by at most twice that
            inv = np.abs(scipy.linalg.solve_triangular(factor, np.eye(d), lower=True))
            skeel = (inv.T @ np.abs(factor.T) if transpose else inv @ np.abs(factor)) @ np.abs(want)
            assert np.max(np.abs(got - want)) <= d * EPS * np.max(skeel)


@pytest.mark.parametrize("model_id, run", [("L1-ssB", 5), ("L4-sB", 0)])
def test_solve_spd_matches_scipy_cho_solve(model_id, run):
    # pooled covariances at every prefix of an ill-conditioned selection that
    # solve_spd accepts, then random well-conditioned ones
    train, selection = _bench_selection(model_id, run)
    matrices = [pooled_cov(train, selection.points[:d]) for d in range(1, len(selection) + 1)]
    rng = np.random.default_rng(run)
    for d in (1, 2, 5, 10, 30):
        a = rng.normal(size=(d, d + 3))
        matrices.append(a @ a.T)
    ill = 0
    for k in matrices:
        d = k.shape[0]
        b = rng.normal(size=d)
        try:
            got = solve_spd(k, b)
        except SingularMatrixError:
            continue
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(k, lower=True), b)
        cond = np.linalg.cond(k)
        ill += cond > 1e12
        # a Cholesky solve is backward stable with relative backward error
        # about (3 d + 1) eps / 2, so each solution's normwise forward error is
        # at most about that times cond(K), and two differ by at most twice it;
        # on the smoothed models' bench streams the largest seen was 5e-3 of
        # this bound (L1-ssB run 0, d = 9)
        assert np.max(np.abs(got - want)) <= (3 * d + 1) * EPS * cond * np.max(np.abs(want))
    assert ill >= 1


@pytest.mark.parametrize("spec, grid", [
    (BrownianKernel(), make_grid(100, 0, 1)),
    (BrownianKernel(), make_grid(400, 0, 1)),
    (BrownianBridgeKernel(), make_grid(100, 0.001, 0.999)),
    (OrnsteinUhlenbeckKernel(2.0, 0.5), make_grid(100, 0, 1)),
])
def test_discretized_eigen_matches_scipy_eigh(spec, grid, monkeypatch):
    got = discretized_eigen(spec, grid)
    # the oracle is the same code with scipy's eigh (LAPACK syevr, where
    # numpy's runs syevd)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda a: scipy.linalg.eigh(a, check_finite=False))
        want = discretized_eigen(spec, grid)
    lam, g = want.eigenvalues, grid.count
    # Weyl: each eigenvalue moves by at most the backward error, a few
    # G eps ||K||; the largest seen is 0.14 of this bound (Brownian, G = 100)
    np.testing.assert_allclose(got.eigenvalues, lam, rtol=0, atol=g * EPS * lam[0])
    # the ten leading ones, which `rkfda eigen` prints by default, agree far
    # closer (2e-14 relative at most)
    np.testing.assert_allclose(got.eigenvalues[:10], lam[:10], rtol=1e-12, atol=0)
    # after the sign rule an eigenfunction moves by at most about that
    # backward error over its eigenvalue's gap (Davis-Kahan); a repeated
    # eigenvalue (the bridge's smallest) has gap 0 and no bound.  The largest
    # seen is 0.03 of this bound (bridge, G = 100)
    gap = np.minimum(np.abs(np.diff(lam, prepend=np.inf)), np.abs(np.diff(lam, append=-np.inf)))
    moved = np.max(np.abs(got.eigenfunctions - want.eigenfunctions), axis=1) * math.sqrt(grid.spacing)
    with np.errstate(divide="ignore"):
        assert np.all(moved <= g * EPS * lam[0] / gap)


@pytest.mark.parametrize(
    "kernel,t_min,t_max",
    [
        (BrownianKernel(), -1.0, 1.0),
        (BrownianKernel(), -1e-9, 1.0),
        (BrownianBridgeKernel(), 0.0, 2.0),
        (BrownianBridgeKernel(), -0.5, 1.0),
        (BrownianBridgeKernel(t_max=2.0), 0.0, 2.0 + 1e-9),
    ],
    ids=["brownian-negative", "brownian-just-below-0", "bridge-past-t-max", "bridge-negative", "bridge-past-2"],
)
def test_kernels_reject_times_outside_their_domain(kernel, t_min, t_max):
    # outside its domain the formula is no covariance: the bridge's variance
    # at t = 2 on [0, 1] is -2
    grid = make_grid(5, t_min, t_max)
    outside = grid.points[0] if t_min < 0 else grid.points[-1]
    with pytest.raises(ValueError, match="times must lie in"):
        kernel_eval(kernel, outside, outside)
    with pytest.raises(ValueError, match="times must lie in"):
        gram(kernel, grid.points)
    with pytest.raises(ValueError, match="times must lie in"):
        discretized_eigen(kernel, grid)
    with pytest.raises(ValueError, match="times must lie in"):
        greedy_select(oracle_source(kernel, grid, np.ones(grid.count)), SelectionConfig(d_max=2))


def test_kernels_accept_their_whole_domain():
    assert kernel_eval(BrownianKernel(), 0.0, 5.0) == 0.0
    assert kernel_eval(BrownianBridgeKernel(t_max=2.0), 2.0, 2.0) == 0.0
    # a grid's last point may round just past the bridge's endpoint
    assert kernel_eval(BrownianBridgeKernel(), 1.0 + 1e-13, 0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "make, value",
    [
        (lambda v: OrnsteinUhlenbeckKernel(theta=v), math.inf),
        (lambda v: OrnsteinUhlenbeckKernel(theta=v), math.nan),
        (lambda v: OrnsteinUhlenbeckKernel(sigma2=v), math.inf),
        (lambda v: OrnsteinUhlenbeckKernel(sigma2=v), math.nan),
        (lambda v: BrownianBridgeKernel(t_max=v), 0.0),
        (lambda v: BrownianBridgeKernel(t_max=v), -1.0),
        (lambda v: BrownianBridgeKernel(t_max=v), math.inf),
        (lambda v: BrownianBridgeKernel(t_max=v), math.nan),
        (lambda v: SmoothedBrownian(bandwidth=v), math.inf),
        (lambda v: SmoothedBrownian(bandwidth=v), math.nan),
    ],
    ids=["ou-theta-inf", "ou-theta-nan", "ou-sigma2-inf", "ou-sigma2-nan", "bridge-t-max-0",
         "bridge-t-max-negative", "bridge-t-max-inf", "bridge-t-max-nan", "smoothed-inf", "smoothed-nan"],
)
def test_process_parameters_must_be_finite_and_positive(make, value):
    # NaN passes a "<= 0" test; an infinite or NaN parameter gave NaN eigenvalues
    # and covariances, and a bridge on [0, 0] divided by zero
    with pytest.raises(ValueError, match="must be finite and positive"):
        make(value)
