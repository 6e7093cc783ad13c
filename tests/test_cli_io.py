import numpy as np
import pytest

from rkfda import LabeledDataset, io, make_grid
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


def test_cli_bayes_numeric_failure(capsys):
    assert main(["bayes", "--norm", "-1", "--p", "0.5"]) == 4
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


def test_cli_train_parse_failure_without_points(tmp_path, capsys):
    path, _ = _toy_file(tmp_path)
    code = main(["train", "--data", str(path), "--method", "rkc", "--out", str(tmp_path / "m.txt")])
    assert code == 3
    assert capsys.readouterr().out.strip().splitlines()[-1] == "error_code=parse-error"


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
    selection = greedy_select(train, SelectionConfig(d_max=10, rel_tol=0.0))
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
    ],
    ids=["no-class1", "no-process", "weight-1/0", "prior-1/0", "prior-1.5", "reference-abc", "level-overflow", "relevant-abc"],
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


@pytest.mark.parametrize("kernel", ["ou:1", "ou:a,b", "ou:1,2,3", "ou:-1,1", "matern"])
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


def test_cli_eigen(capsys):
    assert main(["eigen", "--kernel", "brownian", "--grid-count", "50", "--max-order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    theta1 = float(lines[1].split(",")[1])
    assert theta1 == pytest.approx(4 / np.pi**2, rel=0.05)


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
