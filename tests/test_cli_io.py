import importlib

import numpy as np
import pytest

from rkfda import Grid, LabeledDataset, io, make_grid
from rkfda.bench import HistogramReport, _model_entropy
from rkfda.classify import rkc_decisions, train_centroid, train_knn, train_rkc
from rkfda.cli import main
from rkfda.core import DatasetFormatError
from rkfda.select import SelectionConfig, greedy_select
from rkfda.simulate import builtin_catalog, gen_model_dataset, standard_grid


def _toy_file(tmp_path, n=60, seed=5, name="data.csv", grid_count=20):
    grid = standard_grid(grid_count)
    ds = gen_model_dataset(builtin_catalog()["G2b"], n, grid, seed)
    path = tmp_path / name
    io.write_dataset(ds, path)
    return path, ds


def test_dataset_round_trip(tmp_path):
    path, ds = _toy_file(tmp_path)
    back = io.read_dataset(path)
    np.testing.assert_allclose(back.curves, ds.curves, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(back.labels, ds.labels)
    np.testing.assert_allclose(back.grid.points, ds.grid.points, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "count,t_min,t_max", [(1000, 100, 200), (100, 1e3, 1e3 + 1), (200, 1e4, 1e4 + 1), (100, 0, 1)]
)
def test_dataset_round_trip_is_exact_away_from_zero(tmp_path, count, t_min, t_max):
    grid = make_grid(count, t_min, t_max)
    ds = gen_model_dataset(builtin_catalog()["G2b"], 10, grid, 6)
    path = tmp_path / "data.csv"
    io.write_dataset(ds, path)
    back = io.read_dataset(path)
    np.testing.assert_array_equal(back.grid.points, grid.points)
    np.testing.assert_array_equal(back.curves, ds.curves)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_grids_read_back_from_files_are_the_same_grid(tmp_path):
    grid = make_grid(200, 1e4, 1e4 + 1)
    ds = gen_model_dataset(builtin_catalog()["G2b"], 20, grid, 6)
    io.write_dataset(ds, tmp_path / "data.csv")
    assert io.read_dataset(tmp_path / "data.csv").grid.same_as(grid)
    io.write_classifier(train_centroid(ds, 2), tmp_path / "model.txt")
    assert io.read_classifier(tmp_path / "model.txt").grid.same_as(grid)


def test_histogram_times_match_the_dataset_header(tmp_path):
    grid = make_grid(200, 1e4, 1e4 + 1)
    io.write_dataset(gen_model_dataset(builtin_catalog()["G2b"], 4, grid, 6), tmp_path / "data.csv")
    hist = HistogramReport(grid=grid, counts=np.arange(grid.count), relevant=(),
                           matched_per_run=np.zeros(0, dtype=int), d=1, runs=0)
    io.write_histogram(hist, tmp_path / "hist.csv")
    header = (tmp_path / "data.csv").read_text().splitlines()[0].split(",")[1:]
    rows = [line.split(",") for line in (tmp_path / "hist.csv").read_text().splitlines()[1:]]
    assert ["t_" + t for t, _ in rows] == header
    np.testing.assert_array_equal([float(t) for t, _ in rows], grid.points)
    assert [int(c) for _, c in rows] == list(range(grid.count))


def test_read_dataset_small_literal(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("label,t_0,t_1\n0,1.5,2.5\n1,-1,0\n")
    ds = io.read_dataset(path)
    assert ds.size == 2
    np.testing.assert_allclose(ds.grid.points, [0.0, 1.0])


def test_read_dataset_arity_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,t_0,t_1\n0,1.0,2.0\n1,1.0,2.0,3.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        io.read_dataset(path)


def test_read_dataset_rejects_bad_label_and_grid(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,t_0,t_1\n2,1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="label"):
        io.read_dataset(path)
    path.write_text("label,t_1,t_0\n0,1.0,2.0\n")
    with pytest.raises(DatasetFormatError, match="increasing"):
        io.read_dataset(path)


def test_read_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DatasetFormatError, match="no header"):
        io.read_dataset(path)


def test_classifier_files_round_trip(tmp_path):
    grid = make_grid(6, 0, 1)
    rng = np.random.default_rng(0)
    curves = np.vstack([rng.normal(size=(10, 6)), rng.normal(size=(10, 6)) + grid.points])
    ds = LabeledDataset(grid=grid, curves=curves, labels=np.array([0] * 10 + [1] * 10), fixed_prior=0.5)
    probes = rng.normal(size=(20, 6))
    for clf in (
        train_rkc(ds, grid.points[[2, 4]]),
        train_knn(ds, 3),
        train_centroid(ds, 2),
    ):
        path = tmp_path / "model.txt"
        io.write_classifier(clf, path)
        assert path.read_text().startswith("rkfda-model v1\n")
        back = io.read_classifier(path)
        from rkfda.classify import classify_batch

        np.testing.assert_array_equal(classify_batch(back, probes), classify_batch(clf, probes))


def test_read_classifier_rejects_garbage(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("something else\n")
    with pytest.raises(DatasetFormatError):
        io.read_classifier(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "0.3"])
def test_read_classifier_rejects_a_point_off_the_grid(tmp_path, bad):
    grid = make_grid(6, 0, 1)
    rng = np.random.default_rng(1)
    curves = np.vstack([rng.normal(size=(10, 6)), rng.normal(size=(10, 6)) + grid.points])
    ds = LabeledDataset(grid=grid, curves=curves, labels=np.array([0] * 10 + [1] * 10))
    path = tmp_path / "model.txt"
    io.write_classifier(train_rkc(ds, grid.points[[2, 4]]), path)
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("points "))
    lines[i] = lines[i].rsplit(" ", 1)[0] + " " + bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=f"time {bad} is not a grid point"):
        io.read_classifier(path)


def _knn_file_with_a_bad_curve(tmp_path, bad):
    path, _ = _toy_file(tmp_path, n=20, grid_count=4)
    model = tmp_path / "knn.txt"
    assert main(["train", "--data", str(path), "--method", "knn", "--k", "3", "--out", str(model)]) == 0
    lines = model.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("curve "))
    lines[i] = f"curve {bad} 1 2 3"
    model.write_text("\n".join(lines) + "\n")
    return model, path


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_classifier_rejects_a_non_finite_knn_curve(tmp_path, bad):
    model, _ = _knn_file_with_a_bad_curve(tmp_path, bad)
    with pytest.raises(DatasetFormatError, match="finite"):
        io.read_classifier(model)


@pytest.mark.parametrize("bad", ["2", "-1"])
def test_read_classifier_rejects_a_knn_label_other_than_0_or_1(tmp_path, bad):
    # the kNN screen counts the class-1 curves, the exact rule sums labels:
    # only 0 and 1 make the two agree
    model, _ = _knn_file_with_a_bad_curve(tmp_path, "0")
    lines = model.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("labels "))
    lines[i] = " ".join(["labels", bad] + lines[i].split()[2:])
    model.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="labels must be 0 or 1"):
        io.read_classifier(model)


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda line: line.rsplit(" ", 1)[0] if line.startswith("labels ") else line, "19 training labels"),
        (lambda line: line.rsplit(" ", 1)[0] if line.startswith("curve ") else line, "training curves must be 2-D"),
    ],
    ids=["a-label-short", "curves-narrower-than-the-grid"],
)
def test_read_classifier_rejects_a_knn_file_whose_shapes_disagree(tmp_path, edit, match):
    model, _ = _knn_file_with_a_bad_curve(tmp_path, "0")
    model.write_text("\n".join(map(edit, model.read_text().splitlines())) + "\n")
    with pytest.raises(DatasetFormatError, match=match):
        io.read_classifier(model)


def _edited_model_file(tmp_path, method, edit):
    """A model file trained by ``rkfda train --method method``, its lines passed through ``edit``."""
    path, _ = _toy_file(tmp_path, n=20, grid_count=4)
    model = tmp_path / f"{method}.txt"
    extra = ["--points", "0.5"] if method == "rkc" else []
    assert main(["train", "--data", str(path), "--method", method, *extra, "--out", str(model)]) == 0
    model.write_text("\n".join(edit(model.read_text().splitlines())) + "\n")
    return model, path


def _replaced(key, line):
    return lambda lines: [line if l.split(" ", 1)[0] == key else l for l in lines]


@pytest.mark.parametrize(
    "method, edit, match",
    [
        ("knn", lambda lines: [*lines, "bogus 1 2"], "'bogus' not in a knn model"),
        ("knn", _replaced("metric", "metric cosine"), "metric 'cosine' is not sqrt-dt-euclidean"),
        ("knn", _replaced("metric", "metric sqrt-dt-euclidean extra"), "is not sqrt-dt-euclidean"),
        ("knn", lambda lines: [l for l in lines if not l.startswith("metric ")], r"malformed model file \('metric'\)"),
        ("knn", lambda lines: [*lines, "k 1"], "repeated key 'k'"),
        ("knn", lambda lines: [*lines, "order 2"], "'order' not in a knn model"),
        ("rkc", lambda lines: [*lines, "curve 1 2 3 4"], "'curve' not in a rkc model"),
        ("rkc", lambda lines: [*lines, lines[1]], "repeated key 'grid'"),
        ("centroid", lambda lines: [*lines, "metric sqrt-dt-euclidean"], "'metric' not in a centroid model"),
        ("centroid", lambda lines: [*lines, "Proj0 1"], "'Proj0' not in a centroid model"),
    ],
    ids=["knn-bogus", "knn-metric-cosine", "knn-metric-extra", "knn-no-metric", "knn-repeated-k",
         "knn-order", "rkc-curve", "rkc-repeated-grid", "centroid-metric", "centroid-capitalized"],
)
def test_read_classifier_rejects_keys_the_kind_does_not_write(tmp_path, capsys, method, edit, match):
    model, data = _edited_model_file(tmp_path, method, edit)
    with pytest.raises(DatasetFormatError, match=match):
        io.read_classifier(model)
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 3
    assert capsys.readouterr().out.splitlines() == ["error_code=parse-error"]


def test_cli_predict_with_a_non_finite_knn_curve_is_a_parse_error(tmp_path, capsys):
    model, data = _knn_file_with_a_bad_curve(tmp_path, "nan")
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 3
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=parse-error"


def test_plan_round_trip(tmp_path):
    path = tmp_path / "plan.ini"
    path.write_text(
        "[plan]\nmodels = G2 TOY\nsizes = 30 50\nruns = 3\ntest_size = 100\n"
        "validation_size = 50\nmethods = RK-C kNN\nd_max = 4\nseed = 11\nworkers = 2\n"
    )
    plan = io.read_plan(path)
    assert plan.models == ("G2", "TOY")
    assert plan.sizes == (30, 50)
    assert plan.workers == 2
    path.write_text("[plan]\nmodels = G2\n")
    with pytest.raises(DatasetFormatError):
        io.read_plan(path)


def test_cli_bayes(capsys):
    assert main(["bayes", "--norm", "2", "--p", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.158655"


def test_cli_bayes_expansion(capsys):
    code = main(
        ["bayes", "--kernel", "brownian", "--points", "0.5,1.0", "--alphas", "0,1", "--p", "0.5"]
    )
    assert code == 0
    # norm^2 = 1 at these coefficients
    assert capsys.readouterr().out.strip() == "0.308538"


def test_cli_bayes_of_an_infinite_norm_is_0(capsys):
    assert main(["bayes", "--norm", "inf", "--p", "0.3"]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"


def test_cli_bayes_numeric_failure(capsys):
    # repeated expansion points: whether the norm exists depends on the data
    argv = ["bayes", "--kernel", "brownian", "--points", "0.5,0.5", "--alphas", "1,1", "--p", "0.5"]
    assert main(argv) == 4
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "error_code=numeric-failure"


def test_cli_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["bench", "--out", "x.csv"], ["frobnicate"], ["simulate", "--model", "G2", "--n", "four", "--out", "s.csv"]],
    ids=["missing-option", "unknown-command", "bad-int"],
)
def test_cli_usage_error_ends_with_its_error_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "error_code=usage-error"
    assert captured.err.startswith("usage: rkfda") and "error: " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "G2", "--n", "0", "--out", "s.csv"],
        ["simulate", "--model", "G2", "--n", "4", "--grid-count", "1", "--out", "s.csv"],
        ["simulate", "--model", "G2", "--n", "4", "--seed", "-1", "--out", "s.csv"],
        ["train", "--data", "d.csv", "--method", "knn", "--prior", "abc", "--out", "m.txt"],
        ["train", "--data", "d.csv", "--method", "knn", "--prior", "1.5", "--out", "m.txt"],
        ["train", "--data", "d.csv", "--method", "knn", "--k", "0", "--out", "m.txt"],
        ["select", "--data", "d.csv", "--d-max", "0"],
        ["bayes", "--norm", "2", "--p", "1.5"],
        ["eigen", "--kernel", "brownian", "--grid-count", "1"],
        ["bench", "--plan", "p.ini", "--out", "r.csv", "--hist-model", "G2", "--hist-n", "0"],
        ["select", "--data", "d.csv", "--d-max", "1", "--delta", "0"],
        ["select", "--data", "d.csv", "--d-max", "1", "--delta", "-1"],
        ["select", "--data", "d.csv", "--d-max", "1", "--delta", "nan"],
        ["select", "--data", "d.csv", "--d-max", "1", "--delta", "inf"],
        ["train", "--data", "d.csv", "--method", "rkc", "--d-max", "1", "--delta", "inf", "--out", "m.txt"],
        ["bench", "--plan", "p.ini", "--out", "r.csv", "--hist-model", "G2", "--hist-runs", "-1"],
        ["bench", "--plan", "p.ini", "--out", "r.csv", "--hist-model", "G2", "--hist-runs", "0"],
        ["eigen", "--kernel", "brownian", "--max-order", "-1"],
        ["eigen", "--kernel", "brownian", "--max-order", "0"],
        ["bayes", "--norm", "-1", "--p", "0.5"],
        ["bayes", "--norm", "0", "--p", "0.5"],
        ["bayes", "--norm", "nan", "--p", "0.5"],
        ["eigen", "--kernel", "brownian", "--t-min", "1", "--t-max", "0"],
        ["eigen", "--kernel", "brownian", "--t-min", "0.5", "--t-max", "0.5"],
        ["eigen", "--kernel", "brownian", "--t-min", "nan"],
        ["eigen", "--kernel", "brownian", "--t-max", "inf"],
        ["eigen", "--kernel", "brownian", "--t-min=-inf"],
        ["train", "--data", "d.csv", "--method", "rkc", "--points", "abc", "--out", "m.txt"],
        ["train", "--data", "d.csv", "--method", "rkc", "--points", "0.5,nan", "--out", "m.txt"],
        ["train", "--data", "d.csv", "--method", "rkc", "--points", ",", "--out", "m.txt"],
        ["bayes", "--kernel", "brownian", "--points", "a", "--alphas", "1"],
        ["bayes", "--kernel", "brownian", "--points", "0.5", "--alphas", "nan"],
        ["bayes", "--kernel", "brownian", "--points", "0.5", "--alphas", "inf"],
    ],
    ids=["n-0", "grid-count-1", "seed-negative", "prior-abc", "prior-1.5", "k-0", "d-max-0", "p-1.5",
         "eigen-grid-count-1", "hist-n-0", "delta-0", "delta-negative", "delta-nan", "delta-inf",
         "train-delta-inf", "hist-runs-negative", "hist-runs-0", "max-order-negative", "max-order-0",
         "norm-negative", "norm-0", "norm-nan", "t-min-above-t-max", "t-min-at-t-max", "t-min-nan",
         "t-max-inf", "t-min-minus-inf", "points-abc", "points-nan", "points-empty", "bayes-points-a",
         "alphas-nan", "alphas-inf"],
)
def test_cli_out_of_range_option_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "error_code=usage-error"
    assert "error: argument --" in captured.err


def test_cli_prior_estimated_parses_and_k_above_n_is_a_numeric_failure(tmp_path, capsys):
    path, ds = _toy_file(tmp_path, n=20)
    out = tmp_path / "m.txt"
    assert main(["train", "--data", str(path), "--method", "knn", "--prior", "estimated", "--out", str(out)]) == 0
    # k above n depends on the data, so it is checked after reading them
    argv = ["train", "--data", str(path), "--method", "knn", "--k", str(ds.size + 1), "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().out.splitlines()[-1] == "error_code=numeric-failure"


@pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]])
def test_cli_help_exits_0_without_an_error_code(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "error_code=usage-error" not in capsys.readouterr().out


def test_cli_simulate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["simulate", "--model", "G2", "--n", "4", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_select_identical_classes(tmp_path, capsys):
    grid = standard_grid(10)
    rng = np.random.default_rng(1)
    rows = np.cumsum(rng.standard_normal((8, 10)) * np.sqrt(grid.spacing), axis=1)
    ds = LabeledDataset(
        grid=grid, curves=np.vstack([rows, rows]), labels=np.array([0] * 8 + [1] * 8)
    )
    path = tmp_path / "same.csv"
    io.write_dataset(ds, path)
    assert main(["select", "--data", str(path), "--d-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,t,psi"
    for line in lines[1:]:
        assert float(line.split(",")[2]) == pytest.approx(0.0, abs=1e-9)


def test_cli_select_oracle(tmp_path, capsys):
    path, _ = _toy_file(tmp_path, n=100)
    assert main(["select", "--data", str(path), "--d-max", "2", "--kernel", "brownian"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 2


def test_cli_train_predict_round_trip(tmp_path, capsys):
    train_path, _ = _toy_file(tmp_path, n=120, seed=2, name="train.csv")
    test_path, test_ds = _toy_file(tmp_path, n=40, seed=3, name="test.csv")
    model_path = tmp_path / "model.txt"
    code = main(
        ["train", "--data", str(train_path), "--method", "rkc", "--d-max", "3",
         "--prior", "0.5", "--out", str(model_path)]
    )
    assert code == 0
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(test_path),
                 "--out", str(pred_path)]) == 0
    lines = pred_path.read_text().strip().splitlines()
    assert lines[0] == "index,label"
    assert len(lines) == 41
    labels = np.array([int(l.split(",")[1]) for l in lines[1:]])
    # strongly separated model: most predictions match the truth
    assert np.mean(labels == test_ds.labels) > 0.8


def test_cli_train_knn_and_centroid(tmp_path):
    train_path, _ = _toy_file(tmp_path, n=80, seed=4, name="train.csv")
    test_path, test_ds = _toy_file(tmp_path, n=30, seed=5, name="test.csv")
    for method, extra in (("knn", ["--k", "3"]), ("centroid", ["--r", "2"])):
        model_path = tmp_path / f"{method}.txt"
        assert main(["train", "--data", str(train_path), "--method", method,
                     *extra, "--out", str(model_path)]) == 0
        pred = tmp_path / f"{method}-pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(test_path),
                     "--out", str(pred)]) == 0
        labels = np.array(
            [int(l.split(",")[1]) for l in pred.read_text().strip().splitlines()[1:]]
        )
        assert np.mean(labels == test_ds.labels) > 0.7


def test_cli_predict_grid_mismatch_is_numeric_failure(tmp_path, capsys):
    train_path, _ = _toy_file(tmp_path, n=60, seed=6, name="train.csv", grid_count=20)
    other_path, _ = _toy_file(tmp_path, n=10, seed=7, name="other.csv", grid_count=25)
    model_path = tmp_path / "m.txt"
    assert main(["train", "--data", str(train_path), "--method", "knn", "--k", "1",
                 "--out", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), "--data", str(other_path)]) == 4
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=numeric-failure"


def _shifted_grid_files(tmp_path, method="knn"):
    """A model trained on one grid, and a dataset on the same count of times shifted by 0.5."""
    train_path, ds = _toy_file(tmp_path, n=60, seed=6, name="train.csv", grid_count=20)
    model_path = tmp_path / "m.txt"
    assert main(["train", "--data", str(train_path), "--method", method, "--out", str(model_path)]) == 0
    shifted = LabeledDataset(grid=Grid(ds.grid.points + 0.5), curves=ds.curves, labels=ds.labels)
    io.write_dataset(shifted, tmp_path / "shifted.csv")
    return model_path, tmp_path / "shifted.csv"


def test_cli_predict_on_a_shifted_grid_writes_nothing(tmp_path, capsys):
    model_path, data_path = _shifted_grid_files(tmp_path)
    pred = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_path), "--out", str(pred)]) == 4
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines() == ["error_code=numeric-failure"]
    assert "test grid differs from the training grid" in captured.err
    assert not pred.exists()


@pytest.mark.parametrize("method,decisions", [("knn", "knn_decisions"), ("centroid", "centroid_decisions")])
def test_cli_predict_decides_once(tmp_path, capsys, monkeypatch, method, decisions):
    train_path, ds = _toy_file(tmp_path, n=60, seed=6, name="train.csv", grid_count=20)
    model_path, pred = tmp_path / "m.txt", tmp_path / "pred.csv"
    assert main(["train", "--data", str(train_path), "--method", method, "--out", str(model_path)]) == 0
    classify_module = importlib.import_module("rkfda.classify")
    decide, calls = getattr(classify_module, decisions), []

    def counted(*args, **kwargs):
        calls.append(1)
        return decide(*args, **kwargs)

    monkeypatch.setattr(classify_module, decisions, counted)
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--data", str(train_path), "--out", str(pred)]) == 0
    assert len(calls) == 1
    labels = np.array([int(line.split(",")[1]) for line in pred.read_text().splitlines()[1:]])
    assert capsys.readouterr().err == f"error_rate {np.mean(labels != ds.labels):.6f}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "missing.csv", "--method", "rkc", "--out", "m.txt"],
        ["train", "--data", "missing.csv", "--method", "rkc", "--k", "3", "--out", "m.txt"],
        ["bayes"],
        ["bayes", "--kernel", "brownian", "--points", "0.5"],
        ["bayes", "--points", "0.5", "--alphas", "1"],
    ],
    ids=["train-rkc-no-points", "train-rkc-k-only", "bayes-nothing", "bayes-no-alphas", "bayes-no-kernel"],
)
def test_cli_missing_option_combination_is_a_usage_error(argv, capsys):
    # decided from the options alone: no file is read (missing.csv does not exist)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["error_code=usage-error"]
    assert f"rkfda: error: {argv[0]}" in captured.err


def test_cli_train_rkc_at_a_repeated_point_is_a_numeric_failure(tmp_path, capsys):
    path, _ = _toy_file(tmp_path)
    code = main(["train", "--data", str(path), "--method", "rkc", "--points", "0.5,0.5",
                 "--out", str(tmp_path / "m.txt")])
    assert code == 4
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=numeric-failure"
    assert not (tmp_path / "m.txt").exists()


def test_cli_rkc_model_file_predicts_like_the_bench_rule_on_a_dense_grid(tmp_path):
    # the bench's training set of L4-sB run 0 at n = 200, G = 1000, where a
    # second covariance fit at d = 10 flipped 47 % of 1,000 test decisions
    model = builtin_catalog()["L4-sB"]
    grid = standard_grid(1000)
    entropy = _model_entropy("L4-sB")
    paths = {}
    for name, size, stream in (("train", 200, 0), ("test", 200, 2)):
        paths[name] = tmp_path / f"{name}.csv"
        io.write_dataset(gen_model_dataset(model, size, grid, (0, entropy, 200, 0, stream)), paths[name])
    model_path, pred_path = tmp_path / "rkc.txt", tmp_path / "pred.csv"
    assert main(["train", "--data", str(paths["train"]), "--method", "rkc", "--d-max", "10",
                 "--out", str(model_path)]) == 0
    assert main(["predict", "--model", str(model_path), "--data", str(paths["test"]),
                 "--out", str(pred_path)]) == 0
    labels = np.array([int(l.split(",")[1]) for l in pred_path.read_text().strip().splitlines()[1:]])
    train, test = io.read_dataset(paths["train"]), io.read_dataset(paths["test"])
    selection = greedy_select(train, SelectionConfig(d_max=10))
    d = io.read_classifier(model_path).indices.size
    assert d == 10
    np.testing.assert_array_equal(labels, rkc_decisions(train, selection, test.curves)[d - 1])


def test_cli_dataset_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,t_0,t_1\n0,1,2\n0,1\n")
    assert main(["select", "--data", str(bad), "--d-max", "1"]) == 3
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=parse-error"


@pytest.mark.parametrize(
    "catalog, key",
    [
        ("[X]\nclass0 = B\n", "class1"),
        ("[X]\ntype = logistic\nlink = X1\n", "process"),
        ("[X]\nclass0 = 1/0: B | 1/2: B + t\nclass1 = B\n", "class0"),
        ("[X]\nclass0 = B\nclass1 = B + t\nprior = 1/0\n", "prior"),
        ("[X]\nclass0 = B\nclass1 = B + t\nprior = 1.5\n", "prior"),
        ("[X]\ntype = logistic\nprocess = B\nlink = X1\nreference_count = abc\n", "reference_count"),
        ("[X]\nclass0 = B\nclass1 = B + Phi(2000, 1)\n", "class1"),
        ("[X]\nclass0 = B\nclass1 = B + t\nrelevant = a\n", "relevant"),
        ("[X]\nclass0 = -B\nclass1 = B\n", "class0"),
        ("[X]\nclass0 = B\nclass1 = 2*B + t\n", "class1"),
        ("[X]\nclass0 = B\nclass1 = 1*B + t\n", "class1"),
        ("[X]\nclass0 = B + Phi(1,1\nclass1 = B\n", "class0"),
        ("[X]\ntype = logistic\nprocess = B\nlink = X1) + X2\n", "link"),
        ("[X]\nclass0 = OU(1e999, 1)\nclass1 = B\n", "class0"),
        ("[X]\nclass0 = B\nclass1 = OU(1, 1e999)\n", "class1"),
        ("[X]\ntype = logistic\nprocess = sB(1e999)\nlink = X1\n", "process"),
        ("[X]\nclass0 = B\nclass1 = B + t\nprio = 0.9\n", "prio"),
        ("[X]\ntype = logistic\nprocess = B\nlink = X1\nclass0 = B\n", "class0"),
        ("[X]\nclass0 = B\nclass1 = B + t\nlink = X1\n", "link"),
        ("[X]\ntype = logistic\nprocess = B\nlink = X30 + X60\nreference_count = 50\n", "link"),
        ("[X]\nclass0 = B + rslope(1e999)\nclass1 = B\n", "class0"),
    ],
    ids=["no-class1", "no-process", "weight-1/0", "prior-1/0", "prior-1.5", "reference-abc", "level-overflow",
         "relevant-abc", "process-negated", "process-coefficient", "process-unit-coefficient",
         "unclosed-parenthesis", "unopened-parenthesis", "ou-theta-inf", "ou-sigma2-inf", "sb-inf",
         "gaussian-prio", "logistic-class0", "gaussian-link", "link-index-outside", "rslope-inf"],
)
def test_cli_simulate_with_a_malformed_catalog_is_a_parse_error(tmp_path, capsys, catalog, key):
    path = tmp_path / "bad.catalog"
    path.write_text(catalog)
    argv = ["simulate", "--catalog", str(path), "--model", "X", "--n", "4", "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 3
    out = capsys.readouterr()
    assert out.out.strip().splitlines()[-1] == "error_code=parse-error"
    assert "'X'" in out.err and f"'{key}'" in out.err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "kernel", ["ou:1", "ou:a,b", "ou:1,2,3", "ou:-1,1", "matern", "ou:inf,1", "ou:1,nan", "ou:nan,1", "ou:1,inf"]
)
def test_cli_malformed_kernel_is_a_parse_error(kernel, capsys):
    assert main(["eigen", "--kernel", kernel, "--grid-count", "5"]) == 3
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=parse-error"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_read_dataset_rejects_a_non_finite_curve_value(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,t_0.5,t_1\n0,1,2\n1,2,{bad}\n")
    with pytest.raises(DatasetFormatError, match=f"line 3: column 3: curve value {bad} is not finite"):
        io.read_dataset(path)


def test_cli_dataset_with_a_non_finite_value_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("label,t_0.5,t_1\n0,nan,1\n1,2,3\n")
    assert main(["select", "--data", str(bad), "--d-max", "1"]) == 3
    out = capsys.readouterr()
    assert out.out.strip().splitlines()[-1] == "error_code=parse-error"
    assert "line 2: column 2: curve value nan is not finite" in out.err


@pytest.mark.parametrize(
    "argv",
    [["--kernel", "bridge", "--t-max", "2", "--grid-count", "5"], ["--kernel", "brownian", "--t-min", "-1"]],
    ids=["bridge-past-its-endpoint", "brownian-before-0"],
)
def test_cli_eigen_outside_the_kernels_domain_is_a_numeric_failure(argv, capsys):
    assert main(["eigen", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "error_code=numeric-failure"
    assert "times must lie in" in captured.err


def test_cli_eigen(capsys):
    assert main(["eigen", "--kernel", "brownian", "--grid-count", "50", "--max-order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    theta1 = float(lines[1].split(",")[1])
    assert theta1 == pytest.approx(4 / np.pi**2, rel=0.05)


@pytest.mark.parametrize(
    "models, hist",
    [("G2 NOPE", []), ("G2", ["--hist-model", "NOPE"])],
    ids=["plan-model", "hist-model"],
)
def test_cli_bench_with_an_unknown_model_id_is_a_parse_error_that_writes_nothing(models, hist, tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text(f"[plan]\nmodels = {models}\nsizes = 30\nruns = 1\nmethods = kNN\n")
    report, histogram = tmp_path / "report.csv", tmp_path / "hist.csv"
    argv = ["bench", "--plan", str(plan), "--out", str(report), *hist, "--hist-out", str(histogram)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "error_code=parse-error"
    assert "NOPE" in captured.err
    assert not report.exists() and not histogram.exists()


def test_cli_plan_keys_are_case_sensitive(tmp_path, capsys):
    plan = tmp_path / "plan.ini"
    plan.write_text("[plan]\nModels = G2\nsizes = 30\nruns = 1\nmethods = kNN\n")
    with pytest.raises(DatasetFormatError, match="unknown key.*'Models'"):
        io.read_plan(plan)
    assert main(["bench", "--plan", str(plan), "--out", str(tmp_path / "r.csv")]) == 3
    assert capsys.readouterr().out.splitlines() == ["error_code=parse-error"]
    assert not (tmp_path / "r.csv").exists()


def _forbid(monkeypatch, target):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{target} ran before the outputs were checked")

    module, _, name = target.rpartition(".")
    monkeypatch.setattr(importlib.import_module(module), name, forbidden)


_ONE_RUN_PLAN = "[plan]\nmodels = G2\nsizes = 30\nruns = 1\ntest_size = 20\nvalidation_size = 20\nmethods = kNN\n"


@pytest.mark.parametrize(
    "outputs",
    [
        lambda tmp: ["--out", str(tmp)],
        lambda tmp: ["--out", str(tmp / "a-file" / "r.csv")],
        lambda tmp: ["--out", str(tmp / "r.csv"), "--hist-model", "G2", "--hist-out", str(tmp / "missing" / "h.csv")],
        lambda tmp: ["--out", str(tmp / "r.csv"), "--hist-model", "G2", "--hist-out", str(tmp)],
    ],
    ids=["out-a-directory", "out-under-a-file", "hist-out-in-a-missing-directory", "hist-out-a-directory"],
)
def test_cli_bench_checks_every_output_before_the_first_run(tmp_path, capsys, monkeypatch, outputs):
    plan = tmp_path / "plan.ini"
    plan.write_text(_ONE_RUN_PLAN)
    (tmp_path / "a-file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    _forbid(monkeypatch, "rkfda.bench.gen_model_dataset")
    assert main(["bench", "--plan", str(plan), *outputs(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["error_code=parse-error"]
    assert "is a directory" in captured.err or "is missing or not writable" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_bench_writes_the_report_only_with_the_histogram(tmp_path, capsys, monkeypatch):
    plan = tmp_path / "plan.ini"
    plan.write_text(_ONE_RUN_PLAN)

    def failing(*args, **kwargs):
        raise OSError("the histogram failed")

    monkeypatch.setattr(importlib.import_module("rkfda.cli"), "variable_recovery_histogram", failing)
    report = tmp_path / "r.csv"
    argv = ["bench", "--plan", str(plan), "--out", str(report), "--hist-model", "G2", "--hist-out", str(tmp_path / "h.csv")]
    assert main(argv) == 3
    assert not report.exists()


@pytest.mark.parametrize(
    "command, first_work",
    [
        (["simulate", "--model", "G2", "--n", "4"], "rkfda.cli.gen_model_dataset"),
        (["train", "--data", "{data}", "--method", "knn"], "rkfda.io.read_dataset"),
        (["predict", "--model", "{model}", "--data", "{data}"], "rkfda.io.read_classifier"),
    ],
    ids=["simulate", "train", "predict"],
)
def test_cli_a_directory_as_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command, first_work):
    data, _ = _toy_file(tmp_path, n=20, grid_count=4)
    model = tmp_path / "m.txt"
    assert main(["train", "--data", str(data), "--method", "knn", "--out", str(model)]) == 0
    capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    _forbid(monkeypatch, first_work)
    argv = [a.format(data=data, model=model) for a in command]
    assert main([*argv, "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["error_code=parse-error"]
    assert f"output {str(tmp_path)!r} is a directory" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_simulate_with_an_unknown_model_id_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--model", "NOPE", "--n", "4", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.strip().splitlines()[-1] == "error_code=parse-error"
    assert "NOPE" in captured.err
    assert not out.exists()


def test_cli_bench_with_histogram(tmp_path):
    plan = tmp_path / "plan.ini"
    plan.write_text(
        "[plan]\nmodels = G2\nsizes = 30\nruns = 2\ntest_size = 50\n"
        "validation_size = 30\nmethods = RK-C\nd_max = 2\nseed = 3\n"
    )
    report = tmp_path / "report.csv"
    hist = tmp_path / "hist.csv"
    code = main(
        ["bench", "--plan", str(plan), "--out", str(report),
         "--hist-model", "G2", "--hist-n", "50", "--hist-runs", "5", "--hist-d", "1",
         "--hist-out", str(hist)]
    )
    assert code == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "model,n,method,runs,mean_accuracy,sd_accuracy,mean_d,failed_runs"
    assert lines[1].startswith("G2,30,RK-C,2,")
    hist_lines = hist.read_text().strip().splitlines()
    assert hist_lines[0] == "t,count"
    assert sum(int(l.split(",")[1]) for l in hist_lines[1:]) == 5
