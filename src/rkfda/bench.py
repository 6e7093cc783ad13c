"""Repeated-run benchmark protocol: train / validate / test with seeded streams.

Each run draws fresh training, validation and test samples from the model,
fits every requested method on the training sample, fixes its hyperparameter
(number of selected points, k, or truncation order) by validation accuracy,
and scores the winner on the test sample.  Runs are independent tasks: a plan
is one ordered list of (model, n, run) tasks, run in order in the calling
thread, and the results are aggregated per (model, n) cell in that order.
A plan's ``workers`` is validated but does not change how it runs, so
reports do not depend on it.  A run at G = 100 is bound by the interpreter
lock (the per-curve PCG64 loop, small numpy calls): on every shipped plan a
pool of threads each running whole runs ran slower than one thread.  The
only helper threads are those of ``classify.knn_decisions``, which spreads
the row blocks of one large kNN call (at least two blocks per worker), work
that releases the lock, over the CPUs the process may use and stops them
before it returns.  The kNN calls of ``plans/full-protocol.ini`` and of
perfbench's ``protocol`` shape are one or two blocks, and start no thread.

Validation scores every candidate of a method in one pass, with no refit
per candidate:

- RK-C and RK_B-C: ``classify.rkc_decisions`` decides with the rule on
  every prefix of the greedy selection from the selection's Cholesky factor;
- kNN: ``classify.knn_decisions`` votes for the whole k grid from one
  pass over the squared distances between the validation and training
  curves;
- Centroid: ``classify.centroid_decisions`` projects onto every order's
  contrast in one product.

The first maximum of the validation accuracy wins, so ties go to the
smallest d or truncation order and to the earliest k in the grid.  RK-C and
RK_B-C build no classifier for the test set: its accuracy is row d - 1 of
``rkc_decisions`` on the test curves, the arithmetic that validated d, so no
covariance is re-estimated or solved.  kNN and Centroid build only the chosen
classifier.  A run whose training fails
(``TrainingError``, e.g. a class with fewer than two curves) is recorded as
failed for that method and excluded from the averages; any other exception
is a fault and propagates.

While ``run_experiment`` or ``variable_recovery_histogram`` runs, every
OpenBLAS loaded in the process is pinned to one thread, and its thread count
is restored afterwards.  The calls are small, so OpenBLAS's own threads cost
more in wake-ups than they save: on two cores, serial plans of the perfbench
``protocol`` and ``dense`` shapes ran about twice as fast pinned as at
OpenBLAS's default.  The thread count is process-wide: concurrent calls
from several user threads share the pin, and the count is restored when the
last one returns.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

# train_rkc is unused here but stays importable from this module, where
# perfbench/tracing.py wraps it.
from .classify import (  # noqa: F401
    centroid_classifiers,
    centroid_decisions,
    error_rate,
    knn_decisions,
    rkc_decisions,
    train_knn,
    train_rkc,
)
from .core import GRID_SPACING_RTOL, Grid, TrainingError
from .kernels import BrownianKernel
from .select import SelectionConfig, greedy_select, oracle_source_from_dataset
from .simulate import ModelSpec, builtin_catalog, gen_model_dataset, standard_grid

__all__ = [
    "METHODS",
    "ExperimentPlan",
    "ReportEntry",
    "RunReport",
    "run_experiment",
    "HistogramReport",
    "variable_recovery_histogram",
]

METHODS = ("RK-C", "RK_B-C", "kNN", "Centroid")

DEFAULT_K_GRID = tuple(range(1, 22, 2))


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: models, sample sizes, repetitions, methods, seeds.

    ``workers`` is validated (at least 1) but plans run in-process, in the
    calling thread, whatever its value; it is kept for a process pool.
    """

    models: tuple
    sizes: tuple
    runs: int = 50
    test_size: int = 1000
    validation_size: int = 200
    grid_count: int = 100
    methods: tuple = ("RK-C", "kNN")
    d_max: int = 10
    centroid_r_max: int = 20
    k_grid: tuple = DEFAULT_K_GRID
    seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        for name in ("models", "sizes", "methods"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat a value, got {' '.join(map(str, values))}")
        if self.runs < 1 or self.test_size < 1 or self.validation_size < 1:
            raise ValueError("runs, test and validation sizes must be positive")
        if min(self.sizes) < 1:
            raise ValueError("sizes must each be at least 1")
        if self.grid_count < 2:
            raise ValueError("grid_count must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.d_max < 1 or self.centroid_r_max < 1:
            raise ValueError("d_max and centroid_r_max must be at least 1")
        if not self.k_grid or min(self.k_grid) < 1:
            raise ValueError("k_grid must hold at least one k, each at least 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class ReportEntry:
    model: str
    n: int
    method: str
    runs: int
    mean_accuracy: float
    sd_accuracy: float
    mean_param: float | None
    failed_runs: int


@dataclass(frozen=True)
class RunReport:
    entries: tuple

    def entry(self, model: str, n: int, method: str) -> ReportEntry:
        for e in self.entries:
            if (e.model, e.n, e.method) == (model, n, method):
                return e
        raise KeyError((model, n, method))


def _model_entropy(model_id: str) -> int:
    return int.from_bytes(hashlib.sha256(model_id.encode()).digest()[:8], "big")


# (get, set) thread-count symbols, first match per library: numpy's bundled
# OpenBLAS (64-bit integers), scipy's bundled OpenBLAS, then a system OpenBLAS
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class _OpenBlas(NamedTuple):
    path: str
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def _loaded_openblas() -> list:
    """Thread-count controls of every OpenBLAS mapped into this process.

    Empty where ``/proc/self/maps`` does not exist or no OpenBLAS is loaded
    (another BLAS, another operating system).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append(_OpenBlas(path, get, set_))
                break
    return found


# The OpenBLAS thread count is process-wide, so the pin is too: the first
# holder saves the counts and pins, the last one to leave restores them.
_pin_lock = threading.Lock()
_pin_holders = 0
_pin_saved: list = []


@contextmanager
def _blas_pinned():
    """Run the body with every loaded OpenBLAS on one thread, then restore."""
    global _pin_holders, _pin_saved
    with _pin_lock:
        if _pin_holders == 0:
            _pin_saved = [(lib, lib.get_threads()) for lib in _loaded_openblas()]
            for lib, _ in _pin_saved:
                lib.set_threads(1)
        _pin_holders += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if _pin_holders == 0:
                for lib, threads in _pin_saved:
                    lib.set_threads(threads)
                _pin_saved = []


def _accuracies(decisions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Accuracy of each row of ``decisions`` against ``labels``."""
    return 1.0 - np.mean(decisions != labels, axis=1)


def _knn_accuracies(train, val, ks) -> np.ndarray:
    """Validation accuracy of the kNN vote for every k in ``ks``, from one pass over the distances."""
    return _accuracies(knn_decisions(train.grid, train.curves, train.labels, val.curves, ks), val.labels)


def _apply_method(method: str, train, val, test, plan: ExperimentPlan):
    # np.argmax takes the first maximum, so validation ties go to the first candidate
    if method in ("RK-C", "RK_B-C"):
        config = SelectionConfig(d_max=plan.d_max, rel_tol=0.0)
        kernel = BrownianKernel() if method == "RK_B-C" else None
        if kernel is None:
            selection = greedy_select(train, config)
        else:
            selection = greedy_select(oracle_source_from_dataset(train, kernel), config)
        accs = _accuracies(rkc_decisions(train, selection, val.curves), val.labels)
        d = int(np.argmax(accs)) + 1
        test_decisions = rkc_decisions(train, selection, test.curves)[d - 1 : d]
        return float(_accuracies(test_decisions, test.labels)[0]), float(d)
    if method == "kNN":
        ks = [k for k in plan.k_grid if k <= train.size]
        if not ks:
            raise TrainingError("no admissible hyperparameter value")
        k = ks[int(np.argmax(_knn_accuracies(train, val, ks)))]
        return 1.0 - error_rate(train_knn(train, k), test), float(k)
    if method == "Centroid":
        built = centroid_classifiers(train, range(1, plan.centroid_r_max + 1), clip=True)
        if not built:
            raise TrainingError("pooled covariance has no usable spectrum")
        clf = built[int(np.argmax(_accuracies(centroid_decisions(built, val.curves), val.labels)))]
        return 1.0 - error_rate(clf, test), float(clf.order)
    raise ValueError(f"unknown method {method!r}")


def _one_run(model: ModelSpec, n: int, run_idx: int, plan: ExperimentPlan, grid: Grid):
    ent = _model_entropy(model.id)
    train = gen_model_dataset(model, n, grid, (plan.seed, ent, n, run_idx, 0))
    val = gen_model_dataset(model, plan.validation_size, grid, (plan.seed, ent, n, run_idx, 1))
    test = gen_model_dataset(model, plan.test_size, grid, (plan.seed, ent, n, run_idx, 2))
    out = {}
    for method in plan.methods:
        try:
            out[method] = _apply_method(method, train, val, test, plan)
        except TrainingError:
            out[method] = None
    return out


def run_experiment(plan: ExperimentPlan, catalog: dict | None = None) -> RunReport:
    """Execute the plan and aggregate per (model, n, method) across runs."""
    catalog = catalog if catalog is not None else builtin_catalog()
    missing = [m for m in plan.models if m not in catalog]
    if missing:
        raise ValueError(f"models not in the catalog: {missing}")
    grid = standard_grid(plan.grid_count)
    with _blas_pinned():
        results = (
            _one_run(catalog[model_id], n, run_idx, plan, grid)
            for model_id in plan.models
            for n in plan.sizes
            for run_idx in range(plan.runs)
        )
        return _aggregate(plan, results)


def _aggregate(plan: ExperimentPlan, results) -> RunReport:
    """Report of the run results, an iterator in plan task order."""
    entries = []
    for model_id in plan.models:
        for n in plan.sizes:
            cell = list(islice(results, plan.runs))
            for method in plan.methods:
                scored = [r[method] for r in cell if r[method] is not None]
                accs = np.array([s[0] for s in scored])
                params = np.array([s[1] for s in scored])
                entries.append(
                    ReportEntry(
                        model=model_id,
                        n=n,
                        method=method,
                        runs=len(scored),
                        mean_accuracy=float(accs.mean()) if scored else float("nan"),
                        sd_accuracy=float(accs.std(ddof=1)) if len(scored) > 1 else 0.0,
                        mean_param=float(params.mean()) if scored else None,
                        failed_runs=plan.runs - len(scored),
                    )
                )
    return RunReport(entries=tuple(entries))


@dataclass(frozen=True)
class HistogramReport:
    """Selection frequencies across repeated runs plus knot-recovery scores."""

    grid: Grid
    counts: np.ndarray
    relevant: tuple
    matched_per_run: np.ndarray
    d: int
    runs: int

    def match_fraction(self, min_matched: int) -> float:
        """Fraction of runs that recovered at least ``min_matched`` relevant times."""
        return float(np.mean(self.matched_per_run >= min_matched))


# A selected point recovers a relevant time within this many grid steps.
_MATCH_STEPS = 2


def variable_recovery_histogram(
    model: str | ModelSpec,
    n: int,
    runs: int,
    d: int,
    grid: Grid | None = None,
    seed: int = 0,
    catalog: dict | None = None,
) -> HistogramReport:
    """Selection frequencies of greedy search over repeated fresh samples.

    A relevant time counts as matched in a run when some selected point lies
    within two grid steps (``_MATCH_STEPS``) of it.
    """
    if isinstance(model, str):
        catalog = catalog if catalog is not None else builtin_catalog()
        model = catalog[model]
    grid = grid if grid is not None else standard_grid()
    relevant = tuple(getattr(model, "relevant", ()) or ())
    ent = _model_entropy(model.id)
    counts = np.zeros(grid.count, dtype=int)
    matched = np.zeros(runs, dtype=int)
    tol = _MATCH_STEPS * grid.spacing * (1.0 + GRID_SPACING_RTOL)
    config = SelectionConfig(d_max=d, rel_tol=0.0)
    with _blas_pinned():
        for run_idx in range(runs):
            train = gen_model_dataset(model, n, grid, (seed, ent, n, run_idx, 0))
            selection = greedy_select(train, config)
            counts[selection.indices] += 1
            if relevant:
                matched[run_idx] = sum(
                    1 for t in relevant if np.min(np.abs(selection.points - t)) <= tol
                )
    return HistogramReport(
        grid=grid, counts=counts, relevant=relevant, matched_per_run=matched, d=d, runs=runs
    )
