"""Shared domain types (grids, labeled curve datasets, selection results) and input checks.

All types are immutable after construction and safe to share across threads.
Curves are plain float64 arrays with one value per grid point; a dataset
stores them stacked row-wise.  A dataset's class summary, ``moments``, is
computed once per dataset object and kept; from Python 3.12 two threads may
both compute it, which is harmless because the values are equal.
"""

from __future__ import annotations

import configparser
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "RkfdaError",
    "SingularMatrixError",
    "TrainingError",
    "DatasetFormatError",
    "Grid",
    "make_grid",
    "LabeledDataset",
    "ClassMoments",
    "SelectionResult",
    "class_prior",
]

# Relative tolerance for the equispacing invariant of Grid.
GRID_SPACING_RTOL = 1e-9


class RkfdaError(Exception):
    """Base class for numeric and format failures raised by this package."""


class SingularMatrixError(RkfdaError):
    """A covariance matrix is numerically singular by ``kernels.solve_spd``'s pivot rule."""


class TrainingError(RkfdaError, ValueError):
    """A classifier could not be fitted on the given training data.

    Also a ValueError, so callers that catch ValueError still see it; the
    bench counts it, and only it, as a failed run.
    """


class DatasetFormatError(RkfdaError):
    """A dataset / plan / model file violates its documented format."""


def _parse_ini(text: str, name: str) -> configparser.ConfigParser:
    """The INI reader of plans and catalogs: case-sensitive keys, ``#`` comments; bad syntax names ``name``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise DatasetFormatError(f"{name}: {exc}") from exc
    return parser


def _read_section(section, name: str, parsers: dict, required=()) -> dict:
    """The parsed values of the keys present in an INI ``section``, by key.

    ``parsers`` maps every allowed key to its parser.  A key it does not
    list, a missing ``required`` key and a value whose parser raises are
    each a DatasetFormatError naming ``name`` and the key.
    """
    unknown = sorted(set(section) - set(parsers))
    if unknown:
        raise DatasetFormatError(f"{name}: unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in section]
    if missing:
        raise DatasetFormatError(f"{name} has no {missing[0]!r} key")
    values = {}
    for key in section:
        try:
            values[key] = parsers[key](section[key])
        except (DatasetFormatError, ValueError, ArithmeticError) as exc:
            raise DatasetFormatError(f"{name}, key {key!r}: {exc}") from exc
    return values


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only array of ``values`` with the given dtype.

    An ndarray that already has that dtype, is read-only and owns its data
    is kept as is: whoever froze it has handed it over.  Anything else is
    copied, so a caller's writeable array never aliases the result.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == dtype
        and not values.flags.writeable
        and values.flags.owndata
    ):
        return values
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Common equispaced sampling times of all curves in a dataset.

    Points must be strictly increasing and equispaced within a relative
    tolerance of 1e-9 of the first step.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > GRID_SPACING_RTOL * steps[0]:
            raise ValueError("grid points must be equispaced")
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.size

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    def indices_of(self, times) -> np.ndarray:
        """Indices of the grid points equal to ``times`` (each within GRID_SPACING_RTOL of a step).

        Raises ValueError naming the first time that is NaN, infinite or off
        the grid.
        """
        t = np.asarray(times, dtype=float).ravel()
        pos = np.rint((t - self.points[0]) / self.spacing)
        inside = (pos >= 0) & (pos < self.count)  # False for NaN and +-inf
        idx = np.where(inside, pos, 0).astype(int)
        bad = ~inside | (np.abs(self.points[idx] - t) > self.spacing * GRID_SPACING_RTOL)
        if bad.any():
            raise ValueError(f"time {float(t[np.argmax(bad)])!r} is not a grid point")
        return idx

    def nearest_index(self, t: float) -> int:
        """Index of the grid point closest to ``t`` (no exactness required)."""
        return int(np.argmin(np.abs(self.points - t)))

    def same_as(self, other: "Grid") -> bool:
        """Equal counts, and every point within GRID_SPACING_RTOL of a step of ``other``'s."""
        return self.count == other.count and bool(
            np.max(np.abs(self.points - other.points)) <= GRID_SPACING_RTOL * self.spacing
        )


def make_grid(count: int, t_min: float = 0.0, t_max: float = 1.0) -> Grid:
    """Equispaced grid of ``count`` points including both endpoints; ``Grid`` checks them."""
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise ValueError("grid bounds must be finite")  # linspace warns on an infinite bound
    return Grid(np.linspace(t_min, t_max, count))


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer; numpy's integer scalars count, bools do not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("curve values must be finite")


def _check_rows(grid: Grid, curves: np.ndarray, role: str) -> None:
    """Curves as finite rows, one column per grid point."""
    if curves.ndim != 2 or curves.shape[1] != grid.count:
        raise ValueError(f"{role} curves must be 2-D with one column per grid point ({grid.count})")
    _check_finite(curves)


def _check_training(grid: Grid, curves: np.ndarray, labels: np.ndarray, role: str = "training") -> None:
    """A labeled sample: finite rows on the grid, one 0/1 label a row."""
    _check_rows(grid, curves, role)
    if labels.shape != (curves.shape[0],):
        raise ValueError(f"{labels.size} {role} labels for {curves.shape[0]} {role} curves")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")


def _check_both_classes(labels: np.ndarray) -> None:
    """Raise TrainingError unless the 0/1 ``labels`` hold both classes."""
    if labels.all() or not labels.any():
        raise TrainingError("both classes must be present")


def _check_same_grid(grid: Grid, other: Grid) -> None:
    """Raise ValueError unless ``other`` is ``grid``'s grid (``Grid.same_as``)."""
    if other is not grid and not grid.same_as(other):
        raise ValueError("test grid differs from the training grid")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Discretized trajectories with binary labels on a common grid.

    ``curves`` is an (n, grid.count) array, one row per observation.
    ``fixed_prior`` set to a probability pins the class-1 prior; ``None``
    means the prior is estimated as the class-1 fraction.
    """

    grid: Grid
    curves: np.ndarray
    labels: np.ndarray
    fixed_prior: float | None = None

    def __post_init__(self):
        curves = _frozen_array(self.curves)
        labels = _frozen_array(self.labels, dtype=int)
        _check_training(self.grid, curves, labels, "dataset")
        if self.fixed_prior is not None and not 0.0 < self.fixed_prior < 1.0:
            raise ValueError("fixed prior must lie in (0, 1)")
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.curves.shape[0]

    def class_curves(self, label: int) -> np.ndarray:
        return self.curves[self.labels == label]

    @cached_property
    def moments(self) -> "ClassMoments":
        """The class summary, computed on first access and kept.

        The curves are gathered once, class 0 first, and each class's rows are
        averaged, centred and scaled in place in that one copy.  The two
        slices have the layout of ``class_curves(0)`` and ``class_curves(1)``,
        so the means and ``z`` equal the two-split formulas bit for bit.
        """
        _check_both_classes(self.labels)
        z, n0 = _gather_by_class(self.curves, self.labels)
        n1 = z.shape[0] - n0
        x0, x1 = z[:n0], z[n0:]
        m0, m1 = x0.mean(axis=0), x1.mean(axis=0)
        x0 -= m0
        x0 /= np.sqrt(n0)
        x1 -= m1
        x1 /= np.sqrt(n1)
        z.setflags(write=False)  # handed over: ClassMoments keeps it without a copy
        return ClassMoments(grid=self.grid, m0=m0, m1=m1, diff=m1 - m0, n0=n0, n1=n1, z=z)


def _gather_by_class(curves: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """A new array of ``curves`` with the class-0 rows first, each class in its order; and n0."""
    order = np.argsort(labels, kind="stable")
    return curves[order], int(labels.size - np.count_nonzero(labels))


@dataclass(frozen=True, eq=False)
class ClassMoments:
    """Class summary of a dataset: pointwise class means, m1 - m0, class sizes, Z.

    ``z`` holds the class-centred curves, class 0 first: row l of class r is
    (X_rl - Xbar_r) / sqrt(n_r), so ``z.T @ z`` is the pooled covariance and
    one of its columns costs O(n * G).  ``LabeledDataset.moments`` builds it
    in one gathered copy of the curves, centred and scaled in place.
    """

    grid: Grid
    m0: np.ndarray
    m1: np.ndarray
    diff: np.ndarray
    n0: int
    n1: int
    z: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("m0", "m1", "diff", "z"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    def diff_at(self, indices) -> np.ndarray:
        return self.diff[np.asarray(indices, dtype=int)]

    def midpoint_at(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=int)
        return (self.m0[idx] + self.m1[idx]) / 2.0

    def require_covariance(self) -> None:
        """Raise TrainingError unless each class has the two curves a covariance needs."""
        for label, n in ((0, self.n0), (1, self.n1)):
            if n < 2:
                raise TrainingError(f"class {label} needs at least 2 samples for covariance")


def class_prior(dataset: LabeledDataset) -> float:
    """Class-1 prior probability: the configured value or the sample fraction."""
    if dataset.size == 0:
        raise ValueError("empty dataset has no class prior")
    if dataset.fixed_prior is not None:
        return float(dataset.fixed_prior)
    return float(np.mean(dataset.labels))


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Ordered selected time points with the separation score after each step.

    ``psi_trace[k]`` is the squared Mahalanobis distance between the class
    mean vectors restricted to ``points[: k + 1]``; it is nonnegative and
    nondecreasing by construction of the greedy search.  ``factor`` is the
    lower-triangular Cholesky factor L of the covariance at the selected
    points, in selection order (``L @ L.T`` is that d x d covariance), so its
    leading k x k block factors the covariance at ``points[:k]``.
    """

    points: np.ndarray
    indices: np.ndarray = field(repr=False)
    psi_trace: np.ndarray
    factor: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points))
        object.__setattr__(self, "indices", _frozen_array(self.indices, dtype=int))
        object.__setattr__(self, "psi_trace", _frozen_array(self.psi_trace))
        object.__setattr__(self, "factor", _frozen_array(self.factor))
        if not (len(self.points) == len(self.indices) == len(self.psi_trace)):
            raise ValueError("points, indices and psi_trace must align")
        d = len(self.points)
        if self.factor.shape != (d, d):
            raise ValueError("factor must be d x d for d selected points")

    def __len__(self) -> int:
        return self.points.size
