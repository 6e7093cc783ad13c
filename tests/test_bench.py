import dataclasses
import hashlib
import importlib
import importlib.util
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.spatial.distance

from rkfda import core, io
from rkfda.bench import (
    DEFAULT_K_GRID,
    METHODS,
    ExperimentPlan,
    _accuracies,
    _apply_method,
    _blas_pinned,
    _candidates,
    _loaded_openblas,
    run_experiment,
    variable_recovery_histogram,
)
from rkfda.classify import (
    _BLOCK_BYTES,
    KNNClassifier,
    centroid_classifiers,
    centroid_decisions,
    error_rate,
    knn_decisions,
    rkc_decisions,
    train_rkc,
)
from rkfda.core import LabeledDataset, TrainingError
from rkfda.kernels import BrownianKernel, OrnsteinUhlenbeckKernel
from rkfda.rkhs import bayes_error
from rkfda.select import SelectionConfig, greedy_select, oracle_source_from_dataset
from rkfda.simulate import (
    ClassLaw,
    GaussianComponent,
    GaussianModel,
    LinearTrend,
    builtin_catalog,
    gen_model_dataset,
    standard_grid,
)
from test_classify import _knn_decisions_cdist, _refit_rkc


def _gauss_model(model_id, slope1, relevant=()):
    brownian = GaussianComponent(BrownianKernel())
    shifted = GaussianComponent(BrownianKernel(), (LinearTrend(slope1),))
    return GaussianModel(
        id=model_id,
        class0=ClassLaw((brownian,)),
        class1=ClassLaw((shifted,)),
        relevant=relevant,
    )


def test_separable_stub_reaches_perfect_accuracy():
    catalog = {"SEP": _gauss_model("SEP", 12.0)}
    plan = ExperimentPlan(
        models=("SEP",), sizes=(30,), runs=1, test_size=200, validation_size=50,
        methods=("RK-C", "kNN"), d_max=3, seed=1,
    )
    report = run_experiment(plan, catalog=catalog)
    assert report.entry("SEP", 30, "RK-C").mean_accuracy == 1.0
    assert report.entry("SEP", 30, "kNN").mean_accuracy == 1.0


def test_histogram_single_informative_point():
    # a peak narrower than one grid step is informative at exactly one point
    from rkfda.simulate import PeakTrend, standard_grid

    grid = standard_grid(20)
    bump = GaussianComponent(BrownianKernel(), (PeakTrend(6, 16.5, coefficient=100.0),))
    catalog = {
        "ONE": GaussianModel(
            id="ONE",
            class0=ClassLaw((GaussianComponent(BrownianKernel()),)),
            class1=ClassLaw((bump,)),
            relevant=(0.5,),
        )
    }
    hist = variable_recovery_histogram("ONE", n=500, runs=50, d=1, grid=grid, seed=2, catalog=catalog)
    (idx,) = grid.indices_of([0.5])
    assert hist.counts[idx] == 50
    assert hist.counts.sum() == 50
    assert hist.match_fraction(1) == 1.0


def test_histogram_pure_noise_has_no_hot_spot():
    # equal class means: under near-exchangeable noise the argmax frequencies
    # stay within multinomial concentration of uniform
    ou = GaussianComponent(OrnsteinUhlenbeckKernel(theta=50.0))
    catalog = {
        "NOISE": GaussianModel(
            id="NOISE", class0=ClassLaw((ou,)), class1=ClassLaw((ou,))
        )
    }
    from rkfda.simulate import standard_grid

    grid = standard_grid(20)
    hist = variable_recovery_histogram("NOISE", n=100, runs=200, d=1, grid=grid, seed=3, catalog=catalog)
    assert hist.counts.sum() == 200
    uniform = 200 / 20
    assert hist.counts.max() <= 3 * uniform


def test_reports_identical_across_worker_counts(tmp_path):
    from rkfda import io

    blobs = []
    for workers in (1, 4, 8):
        plan = ExperimentPlan(
            models=("G2", "TOY"), sizes=(30,), runs=6, test_size=100,
            validation_size=60, methods=("RK-C", "kNN", "Centroid"), d_max=4,
            centroid_r_max=6, seed=9, workers=workers,
        )
        path = tmp_path / f"report-{workers}.csv"
        io.write_report(run_experiment(plan), path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_every_worker_count_runs_in_the_calling_thread(monkeypatch):
    import threading

    import rkfda.bench

    seen = []

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return gen_model_dataset(*args, **kwargs)

    monkeypatch.setattr(rkfda.bench, "gen_model_dataset", recording)
    run_experiment(_small_plan(8))
    assert len(seen) == 2 * 3 * 3
    assert set(seen) == {threading.get_ident()}


# ---------------------------------------------------------------------------
# OpenBLAS pinned to one thread while the bench runs
# ---------------------------------------------------------------------------


def _blas_threads() -> list:
    return [lib.get_threads() for lib in _loaded_openblas()]


@pytest.fixture
def blas_at_two_threads():
    """Every loaded OpenBLAS on two threads for the test, then as it was."""
    libs = _loaded_openblas()
    saved = [lib.get_threads() for lib in libs]
    for lib in libs:
        lib.set_threads(2)
    try:
        yield [2] * len(libs)
    finally:
        for lib, threads in zip(libs, saved):
            lib.set_threads(threads)


def _small_plan(workers):
    return ExperimentPlan(
        models=("G2", "L1-OU"), sizes=(30,), runs=3, test_size=80, validation_size=40,
        methods=("RK-C", "kNN", "Centroid"), d_max=3, centroid_r_max=4, seed=6, workers=workers,
    )


def _record_blas_threads(monkeypatch) -> list:
    """Patch the bench's dataset generator to record the BLAS thread counts it sees."""
    import rkfda.bench

    seen = []

    def recording(*args, **kwargs):
        seen.append(_blas_threads())
        return gen_model_dataset(*args, **kwargs)

    monkeypatch.setattr(rkfda.bench, "gen_model_dataset", recording)
    return seen


@pytest.mark.parametrize("workers", [1, 2])
def test_run_experiment_pins_blas_and_restores_it(workers, blas_at_two_threads, monkeypatch):
    seen = _record_blas_threads(monkeypatch)
    run_experiment(_small_plan(workers))
    assert len(seen) == 2 * 3 * 3
    assert all(counts == [1] * len(blas_at_two_threads) for counts in seen)
    assert _blas_threads() == blas_at_two_threads


@pytest.mark.parametrize("workers", [1, 2])
def test_blas_threads_are_restored_when_a_run_raises(workers, blas_at_two_threads, monkeypatch):
    import rkfda.bench

    def broken(*args, **kwargs):
        raise RuntimeError("fault inside a run")

    monkeypatch.setattr(rkfda.bench, "_apply_method", broken)
    with pytest.raises(RuntimeError, match="fault inside a run"):
        run_experiment(_small_plan(workers))
    assert _blas_threads() == blas_at_two_threads


def test_histogram_pins_blas_and_restores_it(blas_at_two_threads, monkeypatch):
    seen = _record_blas_threads(monkeypatch)
    variable_recovery_histogram("G2", n=40, runs=3, d=2, grid=standard_grid(30), seed=2)
    assert seen and all(counts == [1] * len(blas_at_two_threads) for counts in seen)
    assert _blas_threads() == blas_at_two_threads


def test_pin_without_openblas_is_a_no_op(blas_at_two_threads, monkeypatch, tmp_path):
    import rkfda.bench

    pinned = tmp_path / "pinned.csv"
    io.write_report(run_experiment(_small_plan(2)), pinned)
    monkeypatch.setattr(rkfda.bench, "_loaded_openblas", lambda: [])
    seen = _record_blas_threads(monkeypatch)
    unpinned = tmp_path / "unpinned.csv"
    io.write_report(run_experiment(_small_plan(2)), unpinned)
    assert all(counts == blas_at_two_threads for counts in seen)
    assert unpinned.read_bytes() == pinned.read_bytes()


def test_overlapping_pins_restore_when_the_last_one_leaves(blas_at_two_threads):
    first, second = _blas_pinned(), _blas_pinned()
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert _blas_threads() == [1] * len(blas_at_two_threads)
    second.__exit__(None, None, None)
    assert _blas_threads() == blas_at_two_threads


def test_concurrent_pins_leave_blas_as_it_was(blas_at_two_threads):
    import sys
    import threading

    seen_unpinned = []

    def pin_often():
        for _ in range(200):
            with _blas_pinned():
                if _blas_threads() != [1] * len(blas_at_two_threads):
                    seen_unpinned.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not seen_unpinned
    assert _blas_threads() == blas_at_two_threads


def test_knn_decisions_do_not_depend_on_blas_threads(blas_at_two_threads, monkeypatch):
    # the product rounds differently on one thread and on two; the screen's
    # fallback must hide that, also with the row blocks split over two threads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    train, val, _ = _samples("G4", 1000, 1000, 1, seed=24)
    assert val.size > 7 * (_BLOCK_BYTES // (8 * train.size))
    args = (train.grid, train.curves, train.labels, val.curves, DEFAULT_K_GRID)
    threaded = knn_decisions(*args)
    with _blas_pinned():
        pinned = knn_decisions(*args)
    np.testing.assert_array_equal(threaded, pinned)
    np.testing.assert_array_equal(threaded, _knn_decisions_cdist(*args))


def test_finder_finds_numpys_bundled_openblas():
    import sys

    bundled = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if not sys.platform.startswith("linux") or not bundled:
        pytest.skip("needs Linux and numpy's bundled OpenBLAS")
    found = {Path(lib.path).resolve() for lib in _loaded_openblas()}
    assert any(path.resolve() in found for path in bundled)


def test_failed_runs_are_counted_not_fatal():
    # three samples can never give two per class, so linear training always fails
    catalog = {"SEP": _gauss_model("SEP", 12.0)}
    plan = ExperimentPlan(
        models=("SEP",), sizes=(3,), runs=4, test_size=50, validation_size=20,
        methods=("RK-C",), d_max=2, seed=4,
    )
    entry = run_experiment(plan, catalog=catalog).entry("SEP", 3, "RK-C")
    assert entry.failed_runs == 4
    assert entry.runs == 0
    assert np.isnan(entry.mean_accuracy)


def test_no_method_beats_the_exact_rule_by_more_than_noise():
    plan = ExperimentPlan(
        models=("TOY",), sizes=(100,), runs=8, test_size=500, validation_size=100,
        methods=("RK-C", "RK_B-C", "kNN", "Centroid"), d_max=6, centroid_r_max=8, seed=5,
    )
    report = run_experiment(plan)
    optimum = 1.0 - bayes_error(2.0, 0.5)
    for entry in report.entries:
        se_mean = entry.sd_accuracy / np.sqrt(max(entry.runs, 1))
        se_test = np.sqrt(optimum * (1 - optimum) / plan.test_size)
        assert entry.mean_accuracy <= optimum + 2 * np.hypot(se_mean, se_test)


def test_every_catalog_model_survives_the_full_pipeline():
    from rkfda.simulate import builtin_catalog

    models = tuple(sorted(builtin_catalog()))
    plan = ExperimentPlan(
        models=models, sizes=(30,), runs=2, test_size=100, validation_size=60,
        methods=("RK-C", "RK_B-C", "kNN", "Centroid"), d_max=4, centroid_r_max=6,
        seed=99, workers=4,
    )
    report = run_experiment(plan)
    assert len(report.entries) == 4 * len(models)
    for entry in report.entries:
        assert entry.failed_runs == 0, (entry.model, entry.method)
        assert 0.0 <= entry.mean_accuracy <= 1.0


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(models=("G2",), sizes=(30,), runs=0)
    with pytest.raises(ValueError):
        ExperimentPlan(models=("G2",), sizes=(30,), methods=("SVM",))
    with pytest.raises(ValueError):
        run_experiment(ExperimentPlan(models=("NOPE",), sizes=(30,), runs=1))


def test_an_unknown_model_id_is_a_value_error_naming_it():
    with pytest.raises(ValueError, match="NOPE"):
        run_experiment(ExperimentPlan(models=("G2", "NOPE"), sizes=(30,), runs=1))
    with pytest.raises(ValueError, match="NOPE"):
        variable_recovery_histogram("NOPE", n=30, runs=1, d=1)
    with pytest.raises(ValueError, match="NOPE"):
        variable_recovery_histogram("NOPE", n=30, runs=1, d=1, catalog={"G2": builtin_catalog()["G2"]})


@pytest.mark.parametrize(
    "bad",
    [
        {"k_grid": (0,)},
        {"k_grid": (-1, 3)},
        {"k_grid": ()},
        {"d_max": 0},
        {"centroid_r_max": 0},
        {"workers": 0},
        {"workers": -4},
        {"models": ()},
        {"sizes": ()},
        {"methods": ()},
        {"sizes": (0,)},
        {"sizes": (30, -5)},
        {"grid_count": 1},
        {"seed": -1},
        {"models": ("G2", "G2")},
        {"sizes": (30, 30)},
        {"methods": ("kNN", "kNN")},
        {"k_grid": (2.5,)},
        {"k_grid": (3.0, 5)},
        {"k_grid": (True, 3)},
        {"k_grid": (1, np.bool_(True))},
        {"k_grid": (1, 1, 3)},
    ],
)
def test_plan_rejects_bad_hyperparameters(bad):
    with pytest.raises(ValueError):
        ExperimentPlan(**{"models": ("G2",), "sizes": (30,), **bad})


_PLAN_INTEGER_FIELDS = [
    "runs", "test_size", "validation_size", "grid_count", "d_max", "centroid_r_max", "seed", "workers",
]


@pytest.mark.parametrize("value", [2.5, True, 30.0], ids=["float", "bool", "integral-float"])
@pytest.mark.parametrize("field", ["sizes", *_PLAN_INTEGER_FIELDS])
def test_plan_rejects_a_non_integer_field_by_name(field, value):
    fields = {"models": ("G2",), "sizes": (30,), field: (value,) if field == "sizes" else value}
    must = "must hold integers" if field == "sizes" else "must be an integer"
    with pytest.raises(ValueError, match=f"{field} {must}"):
        ExperimentPlan(**fields)


@pytest.mark.parametrize(
    "line",
    [
        "k_grid = 0",
        "k_grid = -1 3",
        "d_max = 0",
        "centroid_r_max = 0",
        "workers = 0",
        "workers = -4",
        "models =",
        "sizes =",
        "methods =",
        "sizes = 0",
        "sizes = 30 -5",
        "grid_count = 1",
        "seed = -1",
        "models = G2 G2",
        "sizes = 30 30",
        "methods = kNN kNN",
        "k_grid = 1 1 3",
        "rnus = 1",
    ],
)
def test_bad_plan_hyperparameter_is_a_parse_error(line, tmp_path, capsys):
    from rkfda.cli import PARSE_EXIT, main

    # the line replaces the base plan's value of its key, or adds the key
    values = {"models": "G2", "sizes": "30", "runs": "2", "methods": "kNN Centroid"}
    key, _, value = line.partition("=")
    values[key.strip()] = value.strip()
    plan = tmp_path / "plan.ini"
    plan.write_text("[plan]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")]) == PARSE_EXIT
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "error_code=parse-error"
    assert key.strip() in captured.err
    assert not (tmp_path / "r.csv").exists()


def test_preset_plans_load():
    presets = sorted((Path(__file__).parent.parent / "plans").glob("*.ini"))
    assert len(presets) == 3
    for path in presets:
        assert io.read_plan(path).runs >= 1


# plans/full-protocol.ini at runs = 1: every catalog model, size and method,
# 640 rows.  Recorded with numpy 2.4.6, scipy 1.17.1 and OpenBLAS on core
# SkylakeX; another build's BLAS may round a near-tie decision the other way.
# A change that alters reports on purpose re-records both the rows and the
# digest, and says so in CHANGES.md.
FULL_PROTOCOL_GOLDEN = Path(__file__).parent / "data" / "full-protocol-runs1.csv"
FULL_PROTOCOL_SHA256 = "a8f57ce33a5aa8029ca80ac8cf3bf47df48c43331dc75ef7d2cc3350c02857df"


def test_full_protocol_report_is_byte_identical_to_its_golden(tmp_path):
    expected = FULL_PROTOCOL_GOLDEN.read_bytes()
    assert hashlib.sha256(expected).hexdigest() == FULL_PROTOCOL_SHA256
    plan = io.read_plan(Path(__file__).parent.parent / "plans" / "full-protocol.ini")
    io.write_report(run_experiment(dataclasses.replace(plan, runs=1)), tmp_path / "report.csv")
    got = (tmp_path / "report.csv").read_bytes()
    for row, (want, have) in enumerate(zip(expected.splitlines(), got.splitlines())):
        assert have == want, f"report row {row} differs"
    assert len(got.splitlines()) == len(expected.splitlines()) == 641
    assert hashlib.sha256(got).hexdigest() == FULL_PROTOCOL_SHA256


def test_programming_errors_in_a_method_propagate(monkeypatch):
    import rkfda.bench

    def broken(*args, **kwargs):
        raise ValueError("not a training failure")

    monkeypatch.setattr(rkfda.bench, "centroid_classifiers", broken)
    plan = ExperimentPlan(
        models=("G2",), sizes=(30,), runs=1, test_size=50, validation_size=20,
        methods=("Centroid",), centroid_r_max=3,
    )
    with pytest.raises(ValueError, match="not a training failure"):
        run_experiment(plan)

    def untrainable(*args, **kwargs):
        raise TrainingError("no usable spectrum")

    monkeypatch.setattr(rkfda.bench, "centroid_classifiers", untrainable)
    assert run_experiment(plan).entry("G2", 30, "Centroid").failed_runs == 1


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


class _LoopKNN(KNNClassifier):
    """kNN as scored before one distance matrix served the k grid: a cdist and an argpartition per k."""

    def decide(self, curves):
        scale = math.sqrt(self.grid.spacing)
        dist = scipy.spatial.distance.cdist(curves * scale, self.train_curves * scale)
        neighbours = np.argpartition(dist, self.k - 1, axis=1)[:, : self.k]
        votes = self.train_labels[neighbours].sum(axis=1)
        return (votes * 2 > self.k).astype(int)


def _assert_knn_matches_loop(train, val, test, k_grid=DEFAULT_K_GRID):
    """The bench's kNN validation against the per-k loop it replaced."""
    ks = [k for k in k_grid if k <= train.size]

    def loop(k):
        return _LoopKNN(grid=train.grid, train_curves=train.curves, train_labels=train.labels, k=k)

    k_loop, clf_loop = _validated(ks, loop, val)
    loop_accs = [1.0 - error_rate(loop(k), val) for k in ks]
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), k_grid=tuple(k_grid))
    candidates, decide = _candidates("kNN", train, plan)
    assert candidates == ks
    np.testing.assert_array_equal(_accuracies(decide(val.curves, slice(None)), val.labels), loop_accs)
    test_acc, k = _apply_method("kNN", train, val, test, plan)
    assert k == k_loop
    assert test_acc == 1.0 - error_rate(clf_loop, test)


def _samples(model_id, n, n_val, n_test, seed):
    model = builtin_catalog()[model_id]
    grid = standard_grid(100)
    return tuple(
        gen_model_dataset(model, size, grid, (seed, n, stream))
        for stream, size in enumerate((n, n_val, n_test))
    )


@pytest.mark.parametrize("n", [50, 200])
def test_knn_validation_matches_the_per_k_loop_on_the_catalog(n):
    for model_id in sorted(builtin_catalog()):
        _assert_knn_matches_loop(*_samples(model_id, n, 200, 200, seed=21))


@pytest.mark.parametrize("model_id", ["G4", "L4-sB", "M3"])
def test_knn_validation_matches_the_per_k_loop_at_large_n(model_id):
    _assert_knn_matches_loop(*_samples(model_id, 1000, 500, 500, seed=22))


@pytest.mark.parametrize("k_grid", [(7, 2, 21, 4, 1, 60, 9, 6), (3,), (12,), (40, 8, 31, 2)])
def test_knn_validation_matches_the_per_k_loop_on_odd_grids(k_grid):
    for model_id in ("G4", "L1-B", "M3", "TOY"):
        _assert_knn_matches_loop(*_samples(model_id, 30, 200, 200, seed=23), k_grid=k_grid)


# The per-candidate loop that one-pass validation replaced: one refit and one
# error_rate per d, one error_rate per centroid order.  The RK refit is the
# linear rule's old fit, a second covariance and solve_spd (_refit_rkc).


def _assert_rk_matches_loop(train, val, test, method, d_max=10):
    kernel = BrownianKernel() if method == "RK_B-C" else None
    source = train if kernel is None else oracle_source_from_dataset(train, kernel)
    selection = greedy_select(source, SelectionConfig(d_max=d_max))

    def fit(d):
        return _refit_rkc(train, selection.points[:d], kernel=kernel)

    ds = range(1, len(selection) + 1)
    d_loop, clf_loop = _validated(ds, fit, val)
    loop_accs = [1.0 - error_rate(fit(d), val) for d in ds]
    decisions = rkc_decisions(train, selection, val.curves)
    np.testing.assert_array_equal(_accuracies(decisions, val.labels), loop_accs)
    for d in ds:
        clf = train_rkc(train, selection.points[:d], kernel=kernel)
        np.testing.assert_array_equal(clf.decide(val.curves), decisions[d - 1])
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), d_max=d_max)
    test_acc, d = _apply_method(method, train, val, test, plan)
    assert d == d_loop
    assert test_acc == 1.0 - error_rate(clf_loop, test)


def test_rk_methods_score_the_test_set_without_refitting_or_solving(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the RK methods refit or solved")

    for path, name in (("rkfda.classify", "solve_spd"), ("rkfda.kernels", "solve_spd"), ("rkfda.bench", "train_rkc")):
        monkeypatch.setattr(importlib.import_module(path), name, forbidden)
    train, val, test = _samples("G4", 50, 100, 100, seed=27)
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), d_max=5)
    for method in ("RK-C", "RK_B-C"):
        acc, d = _apply_method(method, train, val, test, plan)
        assert 0.0 <= acc <= 1.0 and 1 <= d <= 5


def test_no_method_builds_a_classifier_or_calls_error_rate_for_the_test_set(monkeypatch):
    import rkfda.bench

    def forbidden(*args, **kwargs):
        raise AssertionError("the bench built a kNN classifier or called error_rate")

    for name in ("train_knn", "error_rate"):
        monkeypatch.setattr(rkfda.bench, name, forbidden)
    train, val, test = _samples("G4", 50, 100, 100, seed=27)
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), d_max=5, centroid_r_max=5)
    for method in METHODS:
        acc, param = _apply_method(method, train, val, test, plan)
        assert 0.0 <= acc <= 1.0 and param >= 1


def test_a_knn_training_set_of_one_class_is_a_failed_run():
    train, val, test = _samples("G4", 20, 50, 50, seed=29)
    one_class = LabeledDataset(grid=train.grid, curves=train.curves, labels=np.zeros(train.size, dtype=int))
    plan = ExperimentPlan(
        models=("G4",), sizes=(1,), runs=3, test_size=50, validation_size=20, methods=("kNN",),
    )
    with pytest.raises(TrainingError, match="both classes must be present"):
        _apply_method("kNN", one_class, val, test, plan)
    # one training curve is one class, and the k grid still admits k = 1
    entry = run_experiment(plan).entry("G4", 1, "kNN")
    assert (entry.runs, entry.failed_runs) == (0, 3)


def test_one_pass_over_every_method_splits_the_training_set_by_class_once(monkeypatch):
    train, val, test = _samples("G4", 50, 100, 100, seed=28)
    names = {id(ds.curves): name for ds, name in ((train, "train"), (val, "val"), (test, "test"))}
    copies = []  # every copy of a dataset's curves by class: the summary's gather, or a split
    gather, split = core._gather_by_class, LabeledDataset.class_curves

    def spied_gather(curves, labels):
        copies.append(("gather", names.get(id(curves))))
        return gather(curves, labels)

    def spied_split(self, label):
        copies.append(("class_curves", names.get(id(self.curves))))
        return split(self, label)

    monkeypatch.setattr(core, "_gather_by_class", spied_gather)
    monkeypatch.setattr(LabeledDataset, "class_curves", spied_split)
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), methods=METHODS, d_max=5)
    for method in METHODS:
        _apply_method(method, train, val, test, plan)
    assert copies == [("gather", "train")]


def _assert_centroid_matches_loop(train, val, test, r_max=20):
    built = centroid_classifiers(train, range(1, r_max + 1), clip=True)
    by_order = {c.order: c for c in built}
    r_loop, clf_loop = _validated(sorted(by_order), lambda r: by_order[r], val)
    loop_accs = [1.0 - error_rate(c, val) for c in built]
    np.testing.assert_array_equal(_accuracies(centroid_decisions(built, val.curves), val.labels), loop_accs)
    plan = ExperimentPlan(models=("-",), sizes=(train.size,), centroid_r_max=r_max)
    test_acc, r = _apply_method("Centroid", train, val, test, plan)
    assert r == r_loop
    assert test_acc == 1.0 - error_rate(clf_loop, test)


def _assert_one_pass_matches_loop(train, val, test):
    for method in ("RK-C", "RK_B-C"):
        _assert_rk_matches_loop(train, val, test, method)
    _assert_centroid_matches_loop(train, val, test)


@pytest.mark.parametrize("n", [50, 200])
def test_one_pass_validation_matches_the_per_candidate_loop_on_the_catalog(n):
    for model_id in sorted(builtin_catalog()):
        _assert_one_pass_matches_loop(*_samples(model_id, n, 200, 200, seed=24))


@pytest.mark.parametrize("model_id", ["G4", "L1-B"])
def test_one_pass_validation_matches_the_per_candidate_loop_on_a_dense_grid(model_id):
    model = builtin_catalog()[model_id]
    grid = standard_grid(1000)
    _assert_one_pass_matches_loop(
        *(gen_model_dataset(model, size, grid, (25, stream)) for stream, size in enumerate((200, 200, 200)))
    )


def test_validation_ties_go_to_the_smallest_d_and_order():
    # classes 50 standard deviations apart: every candidate classifies perfectly
    catalog = {"SEP": _gauss_model("SEP", 50.0)}
    train, val, test = (
        gen_model_dataset(catalog["SEP"], size, standard_grid(100), (26, stream))
        for stream, size in enumerate((30, 100, 100))
    )
    plan = ExperimentPlan(models=("SEP",), sizes=(30,), d_max=6, centroid_r_max=6)
    selection = greedy_select(train, SelectionConfig(d_max=6))
    assert len(selection) == 6
    assert np.all(_accuracies(rkc_decisions(train, selection, val.curves), val.labels) == 1.0)
    built = centroid_classifiers(train, range(1, 7), clip=True)
    assert len(built) == 6
    assert np.all(_accuracies(centroid_decisions(built, val.curves), val.labels) == 1.0)
    for method in ("RK-C", "RK_B-C", "Centroid"):
        assert _apply_method(method, train, val, test, plan) == (1.0, 1.0)


def test_every_name_the_benchmark_traces_resolves(monkeypatch):
    # perfbench's traced run replaces each (module, attribute) of TARGETS by
    # name, so deleting or renaming one would break `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
