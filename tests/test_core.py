import numpy as np
import pytest

from rkfda import Grid, LabeledDataset, class_prior, make_grid


def test_make_grid_three_points():
    g = make_grid(3, 0, 1)
    np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])


def test_make_grid_protocol_spacing():
    g = make_grid(100, 0, 1)
    assert g.count == 100
    assert g.spacing == pytest.approx(1 / 99)


def test_make_grid_endpoints_only():
    g = make_grid(2, 0, 2)
    np.testing.assert_allclose(g.points, [0.0, 2.0])


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(1, 0, 1)
    with pytest.raises(ValueError):
        make_grid(10, 0, np.inf)
    with pytest.raises(ValueError):
        make_grid(10, 1, 0)


def test_grid_rejects_uneven_spacing():
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.5, 0.8]))
    with pytest.raises(ValueError):
        Grid(np.array([0.0, 0.5, 0.5]))


def test_grid_spacing_uniform_within_tolerance():
    g = make_grid(1000, 0, 1)
    steps = np.diff(g.points)
    assert np.max(np.abs(steps - steps[0])) <= 1e-9 * steps[0]


def test_index_of_rejects_off_grid_times():
    g = make_grid(5, 0, 1)
    assert g.indices_of([0.75]).tolist() == [3]
    with pytest.raises(ValueError):
        g.indices_of([0.3])


def _loop_indices_of(grid, times):
    """The per-point lookup the vectorized one replaced: one argmin per time."""
    out = []
    for t in np.atleast_1d(times):
        i = int(np.argmin(np.abs(grid.points - t)))
        if abs(grid.points[i] - t) > grid.spacing * 1e-9:
            raise ValueError(f"time {t!r} is not a grid point")
        out.append(i)
    return np.array(out, dtype=int)


@pytest.mark.parametrize("grid", [make_grid(5, 0, 1), make_grid(100, 0.01, 1), make_grid(1000, -2, 3)])
def test_indices_of_matches_the_per_point_loop(grid):
    rng = np.random.default_rng(grid.count)
    idx = rng.permutation(np.concatenate([np.arange(grid.count), rng.integers(0, grid.count, 20)]))
    # within the exactness tolerance of a grid point, on either side
    times = grid.points[idx] + rng.uniform(-0.9e-9, 0.9e-9, idx.size) * grid.spacing
    expected = _loop_indices_of(grid, times)
    np.testing.assert_array_equal(expected, idx)
    got = grid.indices_of(times)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert [int(grid.indices_of([t])[0]) for t in times[:10]] == expected[:10].tolist()
    for off in (1.1e-9, 0.3, 0.5, -0.5):
        t = grid.points[idx[:3]] + off * grid.spacing
        with pytest.raises(ValueError):
            _loop_indices_of(grid, t)
        with pytest.raises(ValueError, match="not a grid point"):
            grid.indices_of(t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.3, -0.25, 1.25])
def test_indices_of_names_the_first_bad_time(bad):
    g = make_grid(5, 0, 1)
    with pytest.raises(ValueError, match=rf"time {bad!r} is not a grid point"):
        g.indices_of([0.25, bad, 0.4])
    with pytest.raises(ValueError, match=rf"time {bad!r} is not a grid point"):
        g.indices_of(bad)


def test_indices_of_empty_input():
    got = make_grid(5, 0, 1).indices_of([])
    assert got.shape == (0,)
    assert got.dtype == np.dtype(int)


@pytest.mark.parametrize("count,t_min,t_max", [(200, 1e4, 1e4 + 1), (1000, 100, 200), (100, 0, 1)])
def test_same_as_counts_in_grid_steps(count, t_min, t_max):
    grid = make_grid(count, t_min, t_max)
    step = grid.spacing
    # on [1e4, 1e4 + 1] a shift of 1e-3 of a step (5e-6) is within 1e-9 of the times themselves
    for shift, same in ((0.0, True), (0.5e-9 * step, True), (2e-9 * step, False), (1e-3 * step, False)):
        other = Grid(grid.points + shift)
        assert grid.same_as(other) is same and other.same_as(grid) is same, shift
    assert not grid.same_as(make_grid(count + 1, t_min, t_max))


def test_same_as_accepts_twelve_digit_times_of_a_standard_grid():
    # dataset files written before times were written in full carry 12 digits
    for count in (30, 100, 1000):
        grid = make_grid(count, 1.0 / count, 1.0)
        assert grid.same_as(Grid([float(format(t, ".12g")) for t in grid.points]))


def _dataset(labels, fixed_prior=None):
    g = make_grid(2, 0, 1)
    curves = np.zeros((len(labels), 2))
    return LabeledDataset(grid=g, curves=curves, labels=np.array(labels), fixed_prior=fixed_prior)


def test_class_prior_estimated():
    assert class_prior(_dataset([0, 1, 1, 1])) == 0.75


def test_class_prior_fixed():
    assert class_prior(_dataset([0, 1, 1, 1], fixed_prior=0.5)) == 0.5


def test_class_prior_degenerate_estimate_is_zero():
    # training code must reject this; the estimator itself just reports it
    assert class_prior(_dataset([0, 0])) == 0.0


def test_dataset_rejects_bad_labels_and_shapes():
    g = make_grid(2, 0, 1)
    with pytest.raises(ValueError):
        LabeledDataset(grid=g, curves=np.zeros((2, 2)), labels=np.array([0, 2]))
    with pytest.raises(ValueError):
        LabeledDataset(grid=g, curves=np.zeros((2, 3)), labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        LabeledDataset(grid=g, curves=np.array([[0.0, np.nan]]), labels=np.array([1]))


def test_dataset_is_immutable():
    ds = _dataset([0, 1])
    with pytest.raises(ValueError):
        ds.curves[0, 0] = 1.0


def test_frozen_owned_array_is_kept_without_a_copy():
    curves = np.arange(6.0).reshape(3, 2).copy()  # reshape alone gives a view
    curves.setflags(write=False)
    ds = LabeledDataset(grid=make_grid(2, 0, 1), curves=curves, labels=np.array([0, 1, 1]))
    assert ds.curves is curves


@pytest.mark.parametrize(
    "make",
    [
        lambda a: a,  # writeable
        lambda a: a[:, :],  # a read-only view: the base could still be written
        lambda a: a.astype(np.float32),  # another dtype
    ],
)
def test_other_curve_arrays_are_copied(make):
    base = np.arange(6.0).reshape(3, 2).copy()
    curves = make(base)
    if curves is not base:
        curves.setflags(write=False)
    ds = LabeledDataset(grid=make_grid(2, 0, 1), curves=curves, labels=np.array([0, 1, 1]))
    assert not np.shares_memory(ds.curves, base)
    base[0, 0] = 99.0
    assert ds.curves[0, 0] == 0.0 and not ds.curves.flags.writeable
