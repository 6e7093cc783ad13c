import math

import numpy as np
import pytest

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
