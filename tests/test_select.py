import numpy as np
import pytest
import scipy.linalg

from rkfda import (
    BrownianBridgeKernel,
    BrownianKernel,
    LabeledDataset,
    OrnsteinUhlenbeckKernel,
    SelectionConfig,
    class_moments,
    greedy_select,
    make_grid,
    oracle_source,
    oracle_source_from_dataset,
    pooled_cov,
)
from rkfda.core import SelectionResult, SingularMatrixError
from rkfda.kernels import gram, mahalanobis_psi
from rkfda.select import OracleSource
from rkfda.simulate import builtin_catalog, gen_model_dataset, standard_grid

from test_kernels import TOY_KNOTS, TOY_MEAN_AT_KNOTS


def _oracle_linear(grid):
    # class mean difference m(t) = t under the Brownian covariance
    return oracle_source(BrownianKernel(), grid, grid.points.copy())


def test_greedy_linear_mean_picks_right_endpoint():
    g = make_grid(4, 0.25, 1.0)
    result = greedy_select(_oracle_linear(g), SelectionConfig(d_max=1))
    assert result.points[0] == pytest.approx(1.0)
    assert result.psi_trace[0] == pytest.approx(1.0)


def test_greedy_toy_first_point_and_full_trace():
    g = make_grid(9, 0, 1)
    mean = np.interp(g.points, [0.0, *TOY_KNOTS], [0.0, *TOY_MEAN_AT_KNOTS])
    src = oracle_source(BrownianKernel(), g, mean)
    first = greedy_select(src, SelectionConfig(d_max=1, candidate_mask=g.indices_of(TOY_KNOTS)))
    assert first.points[0] == pytest.approx(0.5)
    assert first.psi_trace[0] == pytest.approx(0.5)

    full = greedy_select(src, SelectionConfig(d_max=5, candidate_mask=g.indices_of(TOY_KNOTS)))
    assert full.psi_trace[-1] == pytest.approx(4.0, abs=1e-9)
    assert sorted(full.points) == pytest.approx(list(TOY_KNOTS))


def test_greedy_skips_degenerate_origin():
    # K(0, 0) = 0 makes the singleton Gram singular; the scan must survive
    g = make_grid(5, 0, 1)
    result = greedy_select(_oracle_linear(g), SelectionConfig(d_max=5))
    assert 0.0 not in result.points
    assert np.all(np.diff(result.psi_trace) >= 0)


def test_greedy_trace_nondecreasing_empirical():
    rng = np.random.default_rng(14)
    g = make_grid(30, 0, 1)
    steps = np.sqrt(np.diff(g.points, prepend=0.0))
    curves = np.cumsum(rng.standard_normal((60, 30)) * steps, axis=1)
    curves[30:] += g.points  # shift class 1
    ds = LabeledDataset(grid=g, curves=curves, labels=np.array([0] * 30 + [1] * 30))
    result = greedy_select(ds, SelectionConfig(d_max=8, rel_tol=0.0))
    assert np.all(np.array(result.psi_trace) >= 0)
    assert np.all(np.diff(result.psi_trace) >= 0)


def test_greedy_respects_delta_separation():
    g = make_grid(20, 0, 1)
    src = _oracle_linear(g)
    delta = 3 * g.spacing
    result = greedy_select(src, SelectionConfig(d_max=5, delta=delta))
    pts = np.sort(result.points)
    assert np.all(np.diff(pts) >= delta - 1e-12)


def test_greedy_rejects_small_delta():
    g = make_grid(10, 0, 1)
    with pytest.raises(ValueError):
        greedy_select(_oracle_linear(g), SelectionConfig(d_max=2, delta=0.01))


def test_greedy_candidate_mask_and_no_candidates():
    g = make_grid(10, 0, 1)
    src = _oracle_linear(g)
    masked = greedy_select(src, SelectionConfig(d_max=2, candidate_mask=np.array([3, 4])))
    assert set(masked.indices) <= {3, 4}
    with pytest.raises(ValueError):
        # only the degenerate origin is admissible
        greedy_select(src, SelectionConfig(d_max=1, candidate_mask=np.array([0])))


def _brownian_dataset(rng, n, grid, shift=None):
    steps = np.sqrt(np.diff(grid.points, prepend=0.0))
    curves = np.cumsum(rng.standard_normal((2 * n, grid.count)) * steps, axis=1)
    if shift is not None:
        curves[n:] += shift
    return LabeledDataset(grid=grid, curves=curves, labels=np.array([0] * n + [1] * n))


def test_selection_invariant_under_curve_scaling():
    rng = np.random.default_rng(33)
    g = make_grid(25, 0, 1)
    ds = _brownian_dataset(rng, 40, g, shift=2 * g.points)
    base = greedy_select(ds, SelectionConfig(d_max=5, rel_tol=0.0))
    scaled_ds = LabeledDataset(grid=g, curves=5.0 * ds.curves, labels=ds.labels)
    scaled = greedy_select(scaled_ds, SelectionConfig(d_max=5, rel_tol=0.0))
    np.testing.assert_array_equal(base.indices, scaled.indices)


def test_selection_invariant_under_common_shift():
    rng = np.random.default_rng(34)
    g = make_grid(25, 0, 1)
    ds = _brownian_dataset(rng, 40, g, shift=2 * g.points)
    base = greedy_select(ds, SelectionConfig(d_max=5, rel_tol=0.0))
    shift_curve = np.sin(2 * np.pi * g.points) + 7.0
    shifted_ds = LabeledDataset(grid=g, curves=ds.curves + shift_curve, labels=ds.labels)
    shifted = greedy_select(shifted_ds, SelectionConfig(d_max=5, rel_tol=0.0))
    np.testing.assert_array_equal(base.indices, shifted.indices)


def test_identical_classes_give_single_near_zero_step():
    rng = np.random.default_rng(35)
    g = make_grid(15, 0, 1)
    rows = np.cumsum(rng.standard_normal((20, 15)) * np.sqrt(np.diff(g.points, prepend=0.0)), axis=1)
    ds = LabeledDataset(grid=g, curves=np.vstack([rows, rows]), labels=np.array([0] * 20 + [1] * 20))
    result = greedy_select(ds, SelectionConfig(d_max=5))
    assert len(result) == 1
    assert result.psi_trace[0] == pytest.approx(0.0, abs=1e-12)


def _loop_select(source, config: SelectionConfig) -> SelectionResult:
    """Reference greedy search: one Cholesky solve per candidate per step.

    This is the direct transcription of the forward psi maximization that the
    incremental scan in ``greedy_select`` replaces; a candidate is skipped when
    ``solve_spd`` finds its covariance submatrix numerically singular, by the
    pivot rule the scan applies to its Schur complements.
    """
    if isinstance(source, OracleSource):
        grid, mean, cov = source.grid, source.mean_diff, gram(source.kernel, source.grid.points)
    else:
        grid, mean, cov = source.grid, class_moments(source).diff, pooled_cov(source)
    if config.candidate_mask is not None:
        candidates = np.unique(np.asarray(config.candidate_mask, dtype=int))
    else:
        candidates = np.arange(grid.count)
    delta = grid.spacing if config.delta is None else float(config.delta)
    sep_tol = delta - 1e-12 * max(1.0, delta)

    chosen: list[int] = []
    trace: list[float] = []
    prev_psi = 0.0
    for step in range(config.d_max):
        t_chosen = grid.points[chosen] if chosen else np.empty(0)
        best_idx = -1
        best_psi = -np.inf
        for i in candidates:
            if chosen and np.min(np.abs(grid.points[i] - t_chosen)) < sep_tol:
                continue
            idx = chosen + [i]
            try:
                psi = mahalanobis_psi(mean[idx], cov[np.ix_(idx, idx)])
            except SingularMatrixError:
                continue
            if psi > best_psi:
                best_idx, best_psi = i, psi
        if best_idx < 0:
            if step == 0:
                raise ValueError("no admissible candidate point at the first step")
            break
        if step > 0 and best_psi - prev_psi < config.rel_tol * max(prev_psi, 1.0):
            break
        chosen.append(best_idx)
        trace.append(best_psi)
        prev_psi = best_psi
    return SelectionResult(
        points=grid.points[chosen],
        indices=np.array(chosen, dtype=int),
        psi_trace=trace,
        factor=np.linalg.cholesky(cov[np.ix_(chosen, chosen)]),
    )


def _assert_same_selection(source, config):
    fast = greedy_select(source, config)
    slow = _loop_select(source, config)
    np.testing.assert_array_equal(fast.indices, slow.indices)
    np.testing.assert_allclose(fast.psi_trace, slow.psi_trace, rtol=1e-6)
    np.testing.assert_allclose(fast.factor, slow.factor, rtol=1e-6, atol=1e-9 * np.abs(slow.factor).max())
    _assert_factor_reproduces(fast, source)


def _assert_factor_reproduces(selection, source):
    """The selection's factor gives back the covariance at its points and the psi trace."""
    if isinstance(source, OracleSource):
        cov, mean = gram(source.kernel, selection.points), source.mean_diff
    else:
        cov, mean = pooled_cov(source, selection.points), class_moments(source).diff
    factor = selection.factor
    np.testing.assert_array_equal(factor, np.tril(factor))
    np.testing.assert_allclose(factor @ factor.T, cov, rtol=1e-10)
    w = scipy.linalg.solve_triangular(factor, mean[selection.indices], lower=True)
    np.testing.assert_allclose(np.cumsum(w * w), selection.psi_trace, rtol=1e-8)


# The bench's selection settings: d_max 10 with no early stop.
_BENCH_CONFIG = SelectionConfig(d_max=10, rel_tol=0.0)


@pytest.mark.parametrize("model_id", sorted(builtin_catalog()))
def test_scan_matches_loop_on_catalog(model_id):
    ds = gen_model_dataset(builtin_catalog()[model_id], 50, standard_grid(100), (21, 0))
    _assert_same_selection(ds, _BENCH_CONFIG)
    _assert_same_selection(oracle_source_from_dataset(ds, BrownianKernel()), _BENCH_CONFIG)


@pytest.mark.parametrize("model_id", ["G4", "L1-B"])
def test_scan_matches_loop_on_dense_grid(model_id):
    ds = gen_model_dataset(builtin_catalog()[model_id], 200, standard_grid(1000), (22, 0))
    _assert_same_selection(ds, _BENCH_CONFIG)
    _assert_same_selection(oracle_source_from_dataset(ds, BrownianKernel()), _BENCH_CONFIG)


def test_selection_result_factor_must_be_d_by_d():
    args = dict(points=[0.25, 0.5], indices=[1, 2], psi_trace=[1.0, 2.0])
    assert SelectionResult(**args, factor=np.eye(2)).factor.flags.writeable is False
    for factor in (np.eye(3), np.ones(2), np.ones((2, 1))):
        with pytest.raises(ValueError, match="factor"):
            SelectionResult(**args, factor=factor)


def test_scan_matches_loop_with_mask_delta_and_early_stop():
    ds = gen_model_dataset(builtin_catalog()["G4"], 50, standard_grid(100), (23, 0))
    for config in (
        SelectionConfig(d_max=6, delta=0.05, candidate_mask=np.arange(10, 90, 2)),
        SelectionConfig(d_max=10, rel_tol=0.05),
    ):
        _assert_same_selection(ds, config)


def test_score_ties_go_to_the_smallest_time():
    # stationary covariance and a constant mean: every first-step score is 1
    g = make_grid(6, 0, 1)
    src = oracle_source(OrnsteinUhlenbeckKernel(), g, np.ones(g.count))
    for mask in (None, np.array([4, 2, 5])):
        config = SelectionConfig(d_max=1, candidate_mask=mask)
        expected = 0 if mask is None else 2
        assert greedy_select(src, config).indices.tolist() == [expected]
        assert _loop_select(src, config).indices.tolist() == [expected]


def test_pinned_bridge_endpoints_are_never_selected():
    # K(t, t) = 0 at both ends of a Brownian bridge on [0, 1]
    g = make_grid(21, 0, 1)
    src = oracle_source(BrownianBridgeKernel(1.0), g, np.ones(g.count))
    result = greedy_select(src, SelectionConfig(d_max=g.count, rel_tol=0.0))
    assert len(result) == g.count - 2
    assert 0.0 not in result.points and 1.0 not in result.points


def test_constant_column_is_never_selected():
    rng = np.random.default_rng(40)
    g = standard_grid(12)
    ds = _brownian_dataset(rng, 15, g, shift=g.points)
    curves = ds.curves.copy()
    curves[:, 5] = 2.0  # zero variance, zero mean difference
    ds = LabeledDataset(grid=g, curves=curves, labels=ds.labels)
    result = greedy_select(ds, SelectionConfig(d_max=g.count, rel_tol=0.0))
    assert 5 not in result.indices
    assert len(result) == g.count - 1


def test_duplicate_column_is_skipped_after_its_twin():
    rng = np.random.default_rng(41)
    g = standard_grid(10)
    ds = _brownian_dataset(rng, 20, g, shift=3 * g.points)
    curves = ds.curves.copy()
    curves[:, 7] = curves[:, 3]  # two identical data columns
    ds = LabeledDataset(grid=g, curves=curves, labels=ds.labels)
    result = greedy_select(ds, SelectionConfig(d_max=g.count, rel_tol=0.0))
    assert len({3, 7} & set(result.indices.tolist())) == 1
    assert len(result) == g.count - 1
    assert np.all(np.diff(result.psi_trace) >= 0)


def test_every_candidate_degenerate_raises_at_first_step():
    g = make_grid(6, 0, 1)
    curves = np.tile(np.arange(g.count) - 2.0, (8, 1))  # no variance anywhere
    ds = LabeledDataset(grid=g, curves=curves, labels=np.array([0] * 4 + [1] * 4))
    with pytest.raises(ValueError, match="first step"):
        greedy_select(ds, SelectionConfig(d_max=3))
    bridge = oracle_source(BrownianBridgeKernel(1.0), g, np.ones(g.count))
    with pytest.raises(ValueError, match="first step"):
        greedy_select(bridge, SelectionConfig(d_max=3, candidate_mask=np.array([0, g.count - 1])))
