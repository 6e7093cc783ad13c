"""File formats: dataset CSV, classifier model files, plan files, reports.

Dataset files are comma-separated UTF-8 with a header row

    label,t_<time1>,t_<time2>,...

where the header carries the grid times and each following row holds a 0/1
label and one curve value per grid point.  Times and values are written with
enough digits for an exact float64 round trip.

Classifier model files are versioned plain text with a format tag on the
first line; each subsequent line is "key value...".  Reports and histograms
are plain CSV so any plotting tool can consume them.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

from .bench import ExperimentPlan, HistogramReport, RunReport
from .classify import CentroidClassifier, KNNClassifier, RKCClassifier, TrainedClassifier
from .core import DatasetFormatError, Grid, LabeledDataset, _read_section

__all__ = [
    "read_dataset",
    "write_dataset",
    "read_classifier",
    "write_classifier",
    "read_plan",
    "write_report",
    "write_histogram",
]

REPORT_HEADER = "model,n,method,runs,mean_accuracy,sd_accuracy,mean_d,failed_runs"
MODEL_FORMAT_TAG = "rkfda-model v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset(dataset: LabeledDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ",".join(["label"] + [f"t_{float(t)!r}" for t in dataset.grid.points])
        fh.write(header + "\n")
        for label, row in zip(dataset.labels, dataset.curves):
            fh.write(str(int(label)) + "," + ",".join(_fmt(v) for v in row) + "\n")


def read_dataset(path, fixed_prior: float | None = None) -> LabeledDataset:
    """Parse a dataset CSV; format errors carry the offending line number.

    A NaN or infinite curve value is a format error naming its line and
    column (the label is column 1).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise DatasetFormatError(f"{path}: no header")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 3:
        raise DatasetFormatError(f"{path}: line 1: header must be 'label,t_...,t_...'")
    try:
        times = [float(col.removeprefix("t_")) for col in header[1:]]
        if any(not col.startswith("t_") for col in header[1:]):
            raise ValueError
    except ValueError:
        raise DatasetFormatError(f"{path}: line 1: bad grid column in header") from None
    try:
        grid = Grid(np.array(times))
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: line 1: {exc}") from None
    labels, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            raise DatasetFormatError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        if cells[0] not in ("0", "1"):
            raise DatasetFormatError(f"{path}: line {lineno}: label must be 0 or 1")
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise DatasetFormatError(f"{path}: line {lineno}: non-numeric curve value") from None
        if not all(map(math.isfinite, row)):
            col = next(j for j, value in enumerate(row) if not math.isfinite(value)) + 2
            raise DatasetFormatError(
                f"{path}: line {lineno}: column {col}: curve value {cells[col - 1].strip()} is not finite"
            )
        rows.append(row)
        labels.append(int(cells[0]))
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return LabeledDataset(
        grid=grid, curves=np.array(rows), labels=np.array(labels), fixed_prior=fixed_prior
    )


def _write_vector(fh, key: str, values) -> None:
    fh.write(key + " " + " ".join(_fmt(v) for v in np.atleast_1d(values)) + "\n")


def write_classifier(classifier: TrainedClassifier, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(MODEL_FORMAT_TAG + "\n")
        _write_vector(fh, "grid", classifier.grid.points)
        if isinstance(classifier, RKCClassifier):
            fh.write("kind rkc\n")
            _write_vector(fh, "points", classifier.points)
            _write_vector(fh, "alphas", classifier.alphas)
            _write_vector(fh, "midpoint", classifier.midpoint)
            fh.write(f"log_prior_odds {_fmt(classifier.log_prior_odds)}\n")
        elif isinstance(classifier, KNNClassifier):
            fh.write("kind knn\n")
            fh.write(f"k {classifier.k}\n")
            fh.write("metric sqrt-dt-euclidean\n")
            _write_vector(fh, "labels", classifier.train_labels)
            for row in classifier.train_curves:
                _write_vector(fh, "curve", row)
        elif isinstance(classifier, CentroidClassifier):
            fh.write("kind centroid\n")
            fh.write(f"order {classifier.order}\n")
            _write_vector(fh, "psi", classifier.psi_curve)
            fh.write(f"proj0 {_fmt(classifier.proj0)}\n")
            fh.write(f"proj1 {_fmt(classifier.proj1)}\n")
        else:
            raise TypeError(f"cannot persist {type(classifier).__name__}")


def read_classifier(path) -> TrainedClassifier:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != MODEL_FORMAT_TAG:
        raise DatasetFormatError(f"{path}: not a {MODEL_FORMAT_TAG!r} file")
    fields: dict[str, list[str]] = {}
    curves = []
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, rest = line.partition(" ")
        if key == "curve":
            curves.append([float(v) for v in rest.split()])
        else:
            fields[key] = rest.split()
    try:
        grid = Grid(np.array([float(v) for v in fields["grid"]]))
        kind = fields["kind"][0]
        if kind == "rkc":
            points = np.array([float(v) for v in fields["points"]])
            return RKCClassifier(
                grid=grid,
                indices=grid.indices_of(points),
                alphas=np.array([float(v) for v in fields["alphas"]]),
                midpoint=np.array([float(v) for v in fields["midpoint"]]),
                log_prior_odds=float(fields["log_prior_odds"][0]),
            )
        if kind == "knn":
            return KNNClassifier(
                grid=grid,
                train_curves=np.array(curves),
                train_labels=np.array([int(v) for v in fields["labels"]]),
                k=int(fields["k"][0]),
            )
        if kind == "centroid":
            return CentroidClassifier(
                grid=grid,
                psi_curve=np.array([float(v) for v in fields["psi"]]),
                proj0=float(fields["proj0"][0]),
                proj1=float(fields["proj1"][0]),
                order=int(fields["order"][0]),
            )
        raise DatasetFormatError(f"{path}: unknown classifier kind {kind!r}")
    except (KeyError, ValueError, IndexError) as exc:
        raise DatasetFormatError(f"{path}: malformed model file ({exc})") from exc


# every key a plan may hold, with its parser
_PLAN_KEYS = {
    "models": lambda text: tuple(text.split()),
    "methods": lambda text: tuple(text.split()),
    "sizes": lambda text: tuple(map(int, text.split())),
    "k_grid": lambda text: tuple(map(int, text.split())),
    **dict.fromkeys(["runs", "test_size", "validation_size", "grid_count", "d_max", "centroid_r_max"], int),
    "seed": int, "workers": int,
}


def read_plan(path) -> ExperimentPlan:
    """Parse a plain-text experiment plan (INI, one [plan] section)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise DatasetFormatError(f"{path}: {exc}") from exc
    if not parser.has_section("plan"):
        raise DatasetFormatError(f"{path}: missing [plan] section")
    kwargs = _read_section(parser["plan"], f"{path}: [plan]", _PLAN_KEYS, required=("models", "sizes"))
    try:
        return ExperimentPlan(**kwargs)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: bad plan value ({exc})") from exc


def write_report(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for e in report.entries:
            mean_d = "" if e.mean_param is None else format(e.mean_param, ".6g")
            fh.write(
                f"{e.model},{e.n},{e.method},{e.runs},"
                f"{e.mean_accuracy:.6f},{e.sd_accuracy:.6f},{mean_d},{e.failed_runs}\n"
            )


def write_histogram(hist: HistogramReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,count\n")
        for t, c in zip(hist.grid.points, hist.counts):
            fh.write(f"{float(t)!r},{c}\n")
