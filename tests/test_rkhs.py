import math

import numpy as np
import pytest

from rkfda import (
    BrownianKernel,
    FiniteExpansionMean,
    OrnsteinUhlenbeckKernel,
    bayes_discriminant,
    bayes_error,
    finite_expansion_from_values,
    gram,
    rkhs_norm_sq,
    solve_spd,
    truncation_sequence,
)
from rkfda.rkhs import gaussian_cdf

from test_kernels import TOY_KNOTS, TOY_MEAN_AT_KNOTS


def test_alphas_scalar():
    np.testing.assert_allclose(solve_spd([[0.5]], [0.5]), [1.0])


def test_alphas_two_by_two():
    a = solve_spd([[0.5, 0.5], [0.5, 1.0]], [0.5, 1.0])
    np.testing.assert_allclose(a, [0.0, 1.0], atol=1e-12)


def test_alphas_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = rng.integers(1, 6)
        b = rng.normal(size=(d, d + 3))
        k = b @ b.T + 1e-3 * np.eye(d)
        alpha = rng.normal(size=d)
        m = k @ alpha
        rec = solve_spd(k, m)
        np.testing.assert_allclose(k @ rec, m, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(
        solve_spd(k, k @ np.array([2.0, -3.0] + [0.0] * (d - 2)))[:2], [2.0, -3.0],
        rtol=1e-7, atol=1e-9,
    )


def test_norm_sq_single_point():
    mean = FiniteExpansionMean(BrownianKernel(), np.array([0.5]), np.array([1.0]))
    assert rkhs_norm_sq(mean) == pytest.approx(0.5)


def test_norm_sq_toy_mean_is_four():
    mean = finite_expansion_from_values(BrownianKernel(), TOY_KNOTS, TOY_MEAN_AT_KNOTS)
    assert rkhs_norm_sq(mean) == pytest.approx(4.0, abs=1e-9)


def test_norm_sq_zero_alphas():
    mean = FiniteExpansionMean(BrownianKernel(), np.array([0.2, 0.4]), np.zeros(2))
    assert rkhs_norm_sq(mean) == 0.0


def _unit_mean():
    # one point at variance 1 so alpha = 1 reproduces m1 - m0 = 1
    return FiniteExpansionMean(OrnsteinUhlenbeckKernel(), np.array([0.5]), np.array([1.0]))


def test_discriminant_simple_cases():
    mean = _unit_mean()
    score = bayes_discriminant([0.9], mean, [0.0], [1.0], 0.5)
    assert score == pytest.approx(0.4)
    assert bayes_discriminant([0.5], mean, [0.0], [1.0], 0.5) == pytest.approx(0.0)


def test_discriminant_prior_shift():
    score = bayes_discriminant([0.5], _unit_mean(), [0.0], [1.0], 0.9)
    assert score == pytest.approx(-math.log(1 / 9), abs=1e-12)
    assert score > 0


def test_discriminant_rejects_bad_prior():
    with pytest.raises(ValueError):
        bayes_discriminant([0.5], _unit_mean(), [0.0], [1.0], 1.0)


def test_discriminant_sign_invariant_under_scaling_at_even_prior():
    rng = np.random.default_rng(19)
    kernel = BrownianKernel()
    for _ in range(25):
        d = rng.integers(1, 5)
        pts = np.sort(rng.uniform(0.05, 1.0, size=d))
        pts += np.arange(d) * 1e-4
        alphas = rng.normal(size=d)
        m0 = rng.normal(size=d)
        m1 = rng.normal(size=d)
        x = rng.normal(size=d)
        c = rng.uniform(0.1, 10)
        base = bayes_discriminant(x, FiniteExpansionMean(kernel, pts, alphas), m0, m1, 0.5)
        scaled = bayes_discriminant(x, FiniteExpansionMean(kernel, pts, c * alphas), m0, m1, 0.5)
        assert np.sign(base) == np.sign(scaled)


def test_bayes_error_reference_values():
    assert bayes_error(2.0, 0.5) == pytest.approx(0.158655, abs=1e-4)
    assert bayes_error(1.0, 0.5) == pytest.approx(0.30854, abs=1e-5)
    assert bayes_error(2.0, 0.9) == pytest.approx(0.0701, abs=1e-3)


def test_bayes_error_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bayes_error(0.0, 0.5)
    with pytest.raises(ValueError):
        bayes_error(-1.0, 0.5)
    with pytest.raises(ValueError):
        bayes_error(1.0, 0.0)


def test_bayes_error_decreasing_and_bounded():
    # the bound min(p, 1-p) is approached as the norm vanishes and saturates
    # in float64 there, so strictness is only asserted away from zero
    for p in (0.5, 0.65, 0.9):
        grid = np.linspace(0.05, 8, 60)
        values = np.array([bayes_error(h, p) for h in grid])
        assert np.all(np.diff(values) <= 0)
        assert np.all(np.diff(values[grid >= 0.5]) < 0)
        assert all(0 < v <= min(p, 1 - p) for v in values)
        assert all(v < min(p, 1 - p) for h, v in zip(grid, values) if h >= 1.0)
    assert bayes_error(40.0, 0.5) < 1e-12


def test_bayes_error_matches_monte_carlo_of_score():
    # the conditional score is Gaussian with mean +-h^2/2 - log((1-p)/p)
    # and variance h^2; simulate it and compare the induced error
    rng = np.random.default_rng(10)
    n = 100_000
    for h, p in ((1.0, 0.5), (2.0, 0.5), (1.5, 0.7)):
        b = math.log((1 - p) / p)
        y = rng.random(n) < p
        centers = np.where(y, h * h / 2 - b, -h * h / 2 - b)
        score = centers + h * rng.standard_normal(n)
        err = np.mean((score > 0) != y)
        target = bayes_error(h, p)
        assert abs(err - target) <= 3 * math.sqrt(target * (1 - target) / n)


def test_gaussian_cdf_accuracy():
    # spot values accurate to well below 1e-12
    assert gaussian_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert gaussian_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert gaussian_cdf(-3.0) == pytest.approx(0.0013498980316300933, abs=1e-14)


def test_truncation_sequence_harmonic_case():
    # mu_j = sqrt(theta_j)/sqrt(j) makes the norm increments 1/j
    thetas = 1.0 / np.arange(1, 201) ** 2
    mu = np.sqrt(thetas) / np.sqrt(np.arange(1, 201))
    seq = truncation_sequence(mu, thetas, 100)
    assert seq[0].norm_sq == pytest.approx(1.0)
    assert seq[0].bayes_error == pytest.approx(0.3085, abs=1e-3)
    assert seq[9].norm_sq == pytest.approx(2.9290, abs=1e-4)
    assert seq[9].bayes_error == pytest.approx(0.1961, abs=1e-3)
    assert seq[99].bayes_error == pytest.approx(0.1274, abs=1e-3)
    norms = [t.norm_sq for t in seq]
    errors = [t.bayes_error for t in seq]
    assert np.all(np.diff(norms) >= 0)
    assert np.all(np.diff(errors) <= 0)


def test_truncation_sequence_rejects_zero_mean():
    thetas = 1.0 / np.arange(1, 11) ** 2
    with pytest.raises(ValueError):
        truncation_sequence(np.zeros(10), thetas, 5)


def test_truncation_sequence_rejects_zero_eigenvalue():
    thetas = np.array([1.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        truncation_sequence(np.ones(3), thetas, 3)


def test_truncation_sequence_rejects_excess_order():
    with pytest.raises(ValueError):
        truncation_sequence(np.ones(3), np.ones(3), 4)


def test_truncation_sequence_accepts_eigensystem():
    from rkfda import discretized_eigen, make_grid

    eigen = discretized_eigen(BrownianKernel(), make_grid(80, 0, 1))
    mu = np.sqrt(eigen.eigenvalues[:20]) / np.sqrt(np.arange(1, 21))
    seq = truncation_sequence(mu, eigen, 10)
    assert seq[9].norm_sq == pytest.approx(2.9290, abs=1e-4)


def test_finite_expansion_reproduces_piecewise_linear_mean():
    # under the Brownian kernel an expansion at the knots of a piecewise
    # linear mean (vanishing at 0) reproduces it everywhere
    mean = finite_expansion_from_values(BrownianKernel(), TOY_KNOTS, TOY_MEAN_AT_KNOTS)
    t = np.linspace(0, 1, 201)
    want = np.interp(t, [0.0, *TOY_KNOTS], [0.0, *TOY_MEAN_AT_KNOTS])
    np.testing.assert_allclose(mean(t), want, atol=1e-12)
