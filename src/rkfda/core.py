"""Shared domain types: sampling grids, labeled curve datasets, selection results.

All types are immutable after construction and safe to share across threads.
Curves are plain float64 arrays with one value per grid point; a dataset
stores them stacked row-wise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RkfdaError",
    "SingularMatrixError",
    "TrainingError",
    "DatasetFormatError",
    "UsageError",
    "Grid",
    "make_grid",
    "LabeledDataset",
    "SelectionResult",
    "class_prior",
]

# Relative tolerance for the equispacing invariant of Grid.
GRID_SPACING_RTOL = 1e-9


class RkfdaError(Exception):
    """Base class for numeric and format failures raised by this package."""


class SingularMatrixError(RkfdaError):
    """A covariance matrix stayed numerically singular after ridge escalation."""


class TrainingError(RkfdaError):
    """A classifier could not be fitted on the given training data."""


class DatasetFormatError(RkfdaError):
    """A dataset / plan / model file violates its documented format."""


class UsageError(RkfdaError, ValueError):
    """An invocation setting (e.g. an environment variable) is malformed."""


def _frozen_array(values, dtype=float) -> np.ndarray:
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

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to ``t`` (within spacing*1e-9)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) > self.spacing * 1e-9:
            raise ValueError(f"time {t!r} is not a grid point")
        return i

    def indices_of(self, times) -> np.ndarray:
        return np.array([self.index_of(t) for t in np.atleast_1d(times)], dtype=int)

    def nearest_index(self, t: float) -> int:
        """Index of the grid point closest to ``t`` (no exactness required)."""
        return int(np.argmin(np.abs(self.points - t)))

    def same_as(self, other: "Grid") -> bool:
        return self.count == other.count and bool(
            np.allclose(self.points, other.points, rtol=1e-9, atol=0.0)
        )


def make_grid(count: int, t_min: float = 0.0, t_max: float = 1.0) -> Grid:
    """Equispaced grid of ``count`` points including both endpoints."""
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise ValueError("grid bounds must be finite")
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    if not t_min < t_max:
        raise ValueError("t_min must be below t_max")
    return Grid(np.linspace(t_min, t_max, count))


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
        if curves.ndim != 2 or curves.shape[1] != self.grid.count:
            raise ValueError("curves must be (n, grid.count)")
        if labels.shape != (curves.shape[0],):
            raise ValueError("labels and curves must have equal length")
        if not np.all(np.isfinite(curves)):
            raise ValueError("curve values must be finite")
        if not np.all((labels == 0) | (labels == 1)):
            raise ValueError("labels must be 0 or 1")
        if self.fixed_prior is not None and not 0.0 < self.fixed_prior < 1.0:
            raise ValueError("fixed prior must lie in (0, 1)")
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.curves.shape[0]

    def class_curves(self, label: int) -> np.ndarray:
        return self.curves[self.labels == label]


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
    nondecreasing by construction of the greedy search.
    """

    points: np.ndarray
    indices: np.ndarray = field(repr=False)
    psi_trace: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen_array(self.points))
        object.__setattr__(self, "indices", _frozen_array(self.indices, dtype=int))
        object.__setattr__(self, "psi_trace", _frozen_array(self.psi_trace))
        if not (len(self.points) == len(self.indices) == len(self.psi_trace)):
            raise ValueError("points, indices and psi_trace must align")

    def __len__(self) -> int:
        return self.points.size
