"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with the measured values; any failed assertion marks the criterion red.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from rkfda import (
    BrownianBridgeKernel,
    BrownianKernel,
    FiniteExpansionMean,
    LabeledDataset,
    OrnsteinUhlenbeckKernel,
    SelectionConfig,
    bayes_error,
    bayes_discriminant,
    discretized_eigen,
    gram,
    greedy_select,
    mahalanobis_psi,
    make_grid,
    truncation_sequence,
)
from rkfda.bench import ExperimentPlan, run_experiment, variable_recovery_histogram
from rkfda.estimate import class_moments, pooled_cov
from rkfda.simulate import GAUSSIAN_FAMILY, builtin_catalog, gen_process, standard_grid
from rkfda import io as rkio

from test_kernels import TOY_KNOTS, TOY_MEAN_AT_KNOTS


def _report(number, name, detail):
    print(f"criterion {number:>2} {name}: PASS ({detail})")


def test_criterion_01_analytic_bayes_error():
    value = bayes_error(2.0, 0.5)
    assert value == pytest.approx(0.158655, abs=1e-4)
    _report(1, "analytic optimal error", f"bayes_error(2, 0.5) = {value:.6f}")


def test_criterion_02_toy_norm():
    # independent oracle: plain dense solve over the hand-computed knot values
    oracle = TOY_MEAN_AT_KNOTS @ np.linalg.solve(
        np.minimum.outer(TOY_KNOTS, TOY_KNOTS), TOY_MEAN_AT_KNOTS
    )
    value = mahalanobis_psi(TOY_MEAN_AT_KNOTS, gram(BrownianKernel(), TOY_KNOTS))
    assert oracle == pytest.approx(4.0, abs=1e-9)
    assert value == pytest.approx(4.0, abs=1e-9)
    _report(2, "toy-mean separation", f"psi = {value:.12f}, oracle = {oracle:.12f}")


def test_criterion_03_monte_carlo_oracle():
    rng = np.random.default_rng(123)
    n = 200_000
    worst = 0.0
    for case in range(20):
        kernel = (
            BrownianKernel()
            if case % 2 == 0
            else OrnsteinUhlenbeckKernel(theta=rng.uniform(0.5, 3), sigma2=rng.uniform(0.5, 2))
        )
        d = int(rng.integers(1, 5))
        pts = np.sort(rng.uniform(0.05, 1.0, size=d))
        pts += np.arange(d) * 1e-3
        k = gram(kernel, pts)
        alphas = rng.normal(size=d)
        norm = math.sqrt(max(alphas @ k @ alphas, 1e-12))
        alphas *= rng.uniform(0.8, 2.8) / norm  # keep the error well inside (0, 1/2)
        mean = FiniteExpansionMean(kernel, pts, alphas)
        m1 = k @ alphas
        m0 = np.zeros(d)
        p = 0.5 if case % 3 else 0.7
        target = bayes_error(math.sqrt(alphas @ k @ alphas), p)

        labels = rng.random(n) < p
        chol = scipy.linalg.cholesky(k + 1e-12 * np.eye(d), lower=True)
        x = rng.standard_normal((n, d)) @ chol.T
        x[labels] += m1
        scores = (x - (m0 + m1) / 2.0) @ alphas - math.log((1 - p) / p)
        for i in range(5):  # the vectorized scores match the scalar operation
            assert scores[i] == pytest.approx(
                bayes_discriminant(x[i], mean, m0, m1, p), abs=1e-10
            )
        empirical = np.mean((scores > 0) != labels)
        tol = 3 * math.sqrt(target * (1 - target) / n)
        assert abs(empirical - target) <= tol, (case, empirical, target, tol)
        worst = max(worst, abs(empirical - target) / tol)
    _report(3, "Monte Carlo oracle for the exact rule", f"20 cases, worst |diff|/3se = {worst:.2f}")


def test_criterion_04_toy_error_convergence():
    plan = ExperimentPlan(
        models=("TOY",),
        sizes=(500,),
        runs=50,
        test_size=2000,
        validation_size=200,
        methods=("RK-C",),
        d_max=8,
        seed=11,
    )
    entry = run_experiment(plan).entry("TOY", 500, "RK-C")
    mean_error = 1.0 - entry.mean_accuracy
    assert entry.failed_runs == 0
    assert mean_error <= 0.19
    _report(4, "toy error convergence", f"mean test error = {mean_error:.4f} <= 0.19")


def test_criterion_05_toy_knot_recovery():
    hist = variable_recovery_histogram("TOY", n=1000, runs=100, d=5, seed=3)
    fraction = hist.match_fraction(4)
    assert fraction >= 0.80
    _report(5, "toy knot recovery", f"{fraction:.0%} of runs matched >= 4 of 5 knots")


def test_criterion_06_property_suite():
    rng = np.random.default_rng(99)

    # separation grows under augmentation
    for _ in range(10):
        pts = np.sort(rng.choice(np.arange(1, 100), size=6, replace=False) / 100.0)
        m = rng.normal(size=6)
        sub = sorted(rng.choice(6, size=3, replace=False))
        k_small = gram(BrownianKernel(), pts[sub])
        k_big = gram(BrownianKernel(), pts)
        assert mahalanobis_psi(m[sub], k_small) <= mahalanobis_psi(m, k_big) + 1e-9

    # psi and the selected sequence ignore curve scaling and common shifts
    g = make_grid(25, 0, 1)
    steps = np.sqrt(np.diff(g.points, prepend=0.0))
    curves = np.cumsum(rng.standard_normal((80, 25)) * steps, axis=1)
    curves[40:] += 2 * g.points
    labels = np.array([0] * 40 + [1] * 40)
    base_ds = LabeledDataset(grid=g, curves=curves, labels=labels)
    base_sel = greedy_select(base_ds, SelectionConfig(d_max=5))
    for variant in (3.0 * curves, curves + (np.cos(g.points) + 5.0)):
        ds = LabeledDataset(grid=g, curves=variant, labels=labels)
        sel = greedy_select(ds, SelectionConfig(d_max=5))
        np.testing.assert_array_equal(sel.indices, base_sel.indices)
    idx = [3, 10, 17]
    psi = mahalanobis_psi(class_moments(base_ds).diff[idx], pooled_cov(base_ds)[np.ix_(idx, idx)])
    scaled_ds = LabeledDataset(grid=g, curves=7.0 * curves, labels=labels)
    psi_scaled = mahalanobis_psi(
        class_moments(scaled_ds).diff[idx], pooled_cov(scaled_ds)[np.ix_(idx, idx)]
    )
    assert psi_scaled == pytest.approx(psi, rel=1e-9)

    # pooled covariance: symmetric PSD and equal to the two-pass oracle
    cov = pooled_cov(base_ds)
    np.testing.assert_allclose(cov, cov.T, atol=0)
    assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)
    oracle = np.zeros((25, 25))
    for label in (0, 1):
        x = base_ds.class_curves(label)
        xc = x - x.mean(axis=0)
        oracle += xc.T @ xc / x.shape[0]
    np.testing.assert_allclose(cov, oracle, atol=1e-12)

    # Gram symmetry / PSD
    k = gram(OrnsteinUhlenbeckKernel(2.0, 0.7), np.linspace(0.05, 1, 12))
    np.testing.assert_allclose(k, k.T, atol=0)
    assert np.linalg.eigvalsh(k).min() >= -1e-10 * np.trace(k)

    # optimal error decreases in the norm and respects the prior bound
    for p in (0.5, 0.8):
        values = [bayes_error(h, p) for h in np.linspace(0.5, 6, 30)]
        assert np.all(np.diff(values) < 0)
        assert all(0 < v < min(p, 1 - p) for v in values)

    # truncated separations at the harmonic rate
    thetas = 1.0 / np.arange(1, 201) ** 2
    mu = np.sqrt(thetas) / np.sqrt(np.arange(1, 201))
    seq = truncation_sequence(mu, thetas, 100)
    for r, want in ((1, 0.3085), (10, 0.1961), (100, 0.1274)):
        assert seq[r - 1].bayes_error == pytest.approx(want, abs=1e-3)
    assert np.all(np.diff([t.norm_sq for t in seq]) >= 0)
    assert np.all(np.diff([t.bayes_error for t in seq]) <= 0)

    _report(6, "property suite", "monotonicity, invariances, PSD, oracle equality")


def test_criterion_07_brownian_eigenvalues():
    eigen = discretized_eigen(BrownianKernel(), make_grid(200, 0, 1))
    j = np.arange(1, 6)
    analytic = 1.0 / ((j - 0.5) ** 2 * math.pi**2)
    rel = np.abs(eigen.eigenvalues[:5] - analytic) / analytic
    assert np.all(rel < 0.01)
    _report(7, "Brownian eigensystem", f"worst relative error {rel.max():.4f} over j <= 5")


def test_criterion_08_simulator_moments():
    rng = np.random.default_rng(12)
    n = 20000

    grid_b = make_grid(2, 0.5, 1.0)
    brownian = np.stack([gen_process(BrownianKernel(), grid_b, rng) for _ in range(n)])
    cov_b = np.cov(brownian.T, bias=True)[0, 1]
    assert cov_b == pytest.approx(0.5, abs=0.03)

    grid_bb = make_grid(3, 0.25, 0.75)
    bridge = np.stack([gen_process(BrownianBridgeKernel(), grid_bb, rng) for _ in range(n)])
    cov_bb = np.cov(bridge[:, 0], bridge[:, 2], bias=True)[0, 1]
    assert cov_bb == pytest.approx(0.25 - 0.25 * 0.75, abs=0.03)

    grid_ou = make_grid(3, 0.0, 1.0)
    ou = np.stack([gen_process(OrnsteinUhlenbeckKernel(), grid_ou, rng) for _ in range(n)])
    cov_ou = np.cov(ou[:, 0], ou[:, 2], bias=True)[0, 1]
    assert cov_ou == pytest.approx(math.exp(-1.0), abs=0.03)

    _report(
        8,
        "simulator moments",
        f"cov checks: B {cov_b:.3f}, BB {cov_bb:.3f}, OU {cov_ou:.3f}",
    )


def test_criterion_09_gaussian_family_direction():
    plan = ExperimentPlan(
        models=GAUSSIAN_FAMILY,
        sizes=(50,),
        runs=20,
        test_size=1000,
        validation_size=200,
        methods=("RK-C", "kNN"),
        d_max=10,
        seed=5,
    )
    report = run_experiment(plan)
    rkc = float(np.mean([report.entry(m, 50, "RK-C").mean_accuracy for m in GAUSSIAN_FAMILY]))
    knn = float(np.mean([report.entry(m, 50, "kNN").mean_accuracy for m in GAUSSIAN_FAMILY]))
    gap = 100 * (rkc - knn)
    assert gap >= 1.5
    _report(9, "Gaussian family direction", f"RK-C {100*rkc:.2f} vs kNN {100*knn:.2f}, gap {gap:.2f} pts")


def test_criterion_10_bench_determinism(tmp_path):
    plan = ExperimentPlan(
        models=("G2", "L1-B", "M7"),
        sizes=(30,),
        runs=5,
        test_size=80,
        validation_size=50,
        methods=("RK-C", "kNN"),
        d_max=3,
        seed=21,
    )
    blobs = []
    for workers in (1, 4, 8):
        path = tmp_path / f"report-{workers}.csv"
        rkio.write_report(run_experiment(replace(plan, workers=workers)), path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(10, "report determinism", f"{len(blobs[0])}-byte reports identical for 1/4/8 workers")
