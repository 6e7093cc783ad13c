import numpy as np
import pytest

from rkfda.bench import ExperimentPlan, run_experiment, variable_recovery_histogram
from rkfda.kernels import BrownianKernel, OrnsteinUhlenbeckKernel
from rkfda.rkhs import bayes_error
from rkfda.simulate import ClassLaw, GaussianComponent, GaussianModel, LinearTrend


def _gauss_model(model_id, slope1, relevant=()):
    brownian = GaussianComponent(BrownianKernel())
    shifted = GaussianComponent(BrownianKernel(), LinearTrend(slope1))
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
    bump = GaussianComponent(BrownianKernel(), PeakTrend(6, 16.5, coefficient=100.0))
    catalog = {
        "ONE": GaussianModel(
            id="ONE",
            class0=ClassLaw((GaussianComponent(BrownianKernel()),)),
            class1=ClassLaw((bump,)),
            relevant=(0.5,),
        )
    }
    hist = variable_recovery_histogram("ONE", n=500, runs=50, d=1, grid=grid, seed=2, catalog=catalog)
    idx = grid.index_of(0.5)
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


def test_thread_cap_env(monkeypatch):
    from rkfda.bench import _worker_count

    plan = ExperimentPlan(models=("G2",), sizes=(30,), runs=1, workers=8)
    monkeypatch.setenv("RKFDA_THREADS", "2")
    assert _worker_count(plan) == 2
    monkeypatch.delenv("RKFDA_THREADS")
    assert _worker_count(plan) == 8
    assert _worker_count(ExperimentPlan(models=("G2",), sizes=(30,), runs=1)) == 1


def test_non_integer_thread_cap_is_a_usage_error(monkeypatch, tmp_path, capsys):
    from rkfda.cli import USAGE_EXIT, main

    plan = tmp_path / "plan.ini"
    plan.write_text("[plan]\nmodels = G2\nsizes = 30\nruns = 1\n")
    monkeypatch.setenv("RKFDA_THREADS", "two")
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")]) == USAGE_EXIT
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "error_code=usage-error"
    assert "RKFDA_THREADS" in captured.err
    assert not (tmp_path / "r.csv").exists()


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
