"""Repeated-run benchmark protocol: train / validate / test with seeded streams.

Each run draws fresh training, validation and test samples from the model,
fits every requested method on the training sample, fixes its hyperparameter
(number of selected points, k, or truncation order) by validation accuracy
with ties going to the smallest value, and scores the winner on the test
sample.  Runs are independent tasks; results are keyed by run index before
aggregation, so reports are identical no matter how many workers execute
them.  A run whose training fails (e.g. a single-class sample or a singular
covariance) is recorded as failed for that method and excluded from the
averages.

``RKFDA_THREADS`` caps the worker pool size; a value that is not an integer
raises UsageError.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import centroid_classifiers, error_rate, train_knn, train_rkc
from .core import Grid, SingularMatrixError, TrainingError, UsageError
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
    """What to run: models, sample sizes, repetitions, methods, seeds."""

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
        if self.runs < 1 or self.test_size < 1 or self.validation_size < 1:
            raise ValueError("runs, test and validation sizes must be positive")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")


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


def _worker_count(plan: ExperimentPlan) -> int:
    env = os.environ.get("RKFDA_THREADS")
    try:
        cap = int(env) if env else None
    except ValueError:
        raise UsageError(f"RKFDA_THREADS must be an integer, got {env!r}") from None
    requested = plan.workers if plan.workers is not None else (cap or 1)
    if cap is not None:
        requested = min(requested, cap)
    return max(requested, 1)


def _validated(candidates, fit, val) -> tuple:
    """Pick the candidate maximizing validation accuracy, smallest on ties."""
    best = None
    for value in candidates:
        clf = fit(value)
        acc = 1.0 - error_rate(clf, val)
        if best is None or acc > best[0]:
            best = (acc, value, clf)
    if best is None:
        raise TrainingError("no admissible hyperparameter value")
    return best[1], best[2]


def _apply_method(method: str, train, val, test, plan: ExperimentPlan):
    if method in ("RK-C", "RK_B-C"):
        config = SelectionConfig(d_max=plan.d_max, rel_tol=0.0)
        kernel = BrownianKernel() if method == "RK_B-C" else None
        if kernel is None:
            selection = greedy_select(train, config)
        else:
            selection = greedy_select(oracle_source_from_dataset(train, kernel), config)
        d, clf = _validated(
            range(1, len(selection) + 1),
            lambda d: train_rkc(train, selection.points[:d], kernel=kernel),
            val,
        )
        return 1.0 - error_rate(clf, test), float(d)
    if method == "kNN":
        ks = [k for k in plan.k_grid if k <= train.size]
        k, clf = _validated(ks, lambda k: train_knn(train, k), val)
        return 1.0 - error_rate(clf, test), float(k)
    if method == "Centroid":
        built = centroid_classifiers(train, range(1, plan.centroid_r_max + 1), clip=True)
        if not built:
            raise TrainingError("pooled covariance has no usable spectrum")
        by_order = {c.order: c for c in built}
        r, clf = _validated(sorted(by_order), lambda r: by_order[r], val)
        return 1.0 - error_rate(clf, test), float(r)
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
        except (TrainingError, SingularMatrixError, ValueError):
            out[method] = None
    return out


def run_experiment(plan: ExperimentPlan, catalog: dict | None = None) -> RunReport:
    """Execute the plan and aggregate per (model, n, method) across runs."""
    catalog = catalog if catalog is not None else builtin_catalog()
    missing = [m for m in plan.models if m not in catalog]
    if missing:
        raise ValueError(f"models not in the catalog: {missing}")
    grid = standard_grid(plan.grid_count)
    workers = _worker_count(plan)
    entries = []
    for model_id in plan.models:
        model = catalog[model_id]
        for n in plan.sizes:
            results = [None] * plan.runs
            if workers == 1:
                for run_idx in range(plan.runs):
                    results[run_idx] = _one_run(model, n, run_idx, plan, grid)
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(_one_run, model, n, run_idx, plan, grid): run_idx
                        for run_idx in range(plan.runs)
                    }
                    for future, run_idx in futures.items():
                        results[run_idx] = future.result()
            for method in plan.methods:
                scored = [r[method] for r in results if r[method] is not None]
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


def variable_recovery_histogram(
    model: str | ModelSpec,
    n: int,
    runs: int,
    d: int,
    grid: Grid | None = None,
    seed: int = 0,
    catalog: dict | None = None,
    match_steps: int = 2,
) -> HistogramReport:
    """Selection frequencies of greedy search over repeated fresh samples.

    A relevant time counts as matched in a run when some selected point lies
    within ``match_steps`` grid steps of it.
    """
    if isinstance(model, str):
        catalog = catalog if catalog is not None else builtin_catalog()
        model = catalog[model]
    grid = grid if grid is not None else standard_grid()
    relevant = tuple(getattr(model, "relevant", ()) or ())
    ent = _model_entropy(model.id)
    counts = np.zeros(grid.count, dtype=int)
    matched = np.zeros(runs, dtype=int)
    tol = match_steps * grid.spacing * (1.0 + 1e-9)
    config = SelectionConfig(d_max=d, rel_tol=0.0)
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
