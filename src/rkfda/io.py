"""File formats: dataset CSV, classifier model files, plan files, reports.

Dataset files are comma-separated UTF-8 with a header row

    label,t_<time1>,t_<time2>,...

where the header carries the grid times and each following row holds a 0/1
label and one curve value per grid point.  Times and values are written with
enough digits for an exact float64 round trip.

Classifier model files are versioned plain text with a format tag on the
first line; each subsequent line is "key value...".  A file holds only the
keys its kind writes, each once, except a kNN file's one ``curve`` line per
training curve.  Reports and histograms are plain CSV so any plotting tool
can consume them.
"""

from __future__ import annotations

import math
import os
from itertools import chain

import numpy as np

from .bench import _INTEGER_MINIMA, ExperimentPlan, HistogramReport, RunReport
from .classify import CentroidClassifier, KNNClassifier, RKCClassifier, TrainedClassifier
from .core import DatasetFormatError, Grid, LabeledDataset, _parse_ini, _read_section

__all__ = [
    "check_output",
    "write_lines",
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
KNN_METRIC = "sqrt-dt-euclidean"

# the keys write_classifier writes for each kind; only "curve" repeats
_MODEL_KEYS = {
    "rkc": {"grid", "kind", "points", "alphas", "midpoint", "log_prior_odds"},
    "knn": {"grid", "kind", "k", "metric", "labels", "curve"},
    "centroid": {"grid", "kind", "order", "psi", "proj0", "proj1"},
}


def check_output(path) -> None:
    """Raise OSError unless ``path`` is not a directory and its directory exists and is writable."""
    path = os.fspath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(f"output {path!r} is a directory")
    directory = os.path.dirname(path) or "."
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(f"output directory {directory!r} is missing or not writable")


def write_lines(path, lines) -> None:
    """Write each of ``lines`` and a Unix line end to ``path`` as UTF-8; every output file is written here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_dataset(dataset: LabeledDataset, path) -> None:
    header = ",".join(["label"] + [f"t_{float(t)!r}" for t in dataset.grid.points])
    rows = (f"{int(label)}," + ",".join(map(_fmt, row)) for label, row in zip(dataset.labels, dataset.curves))
    write_lines(path, chain([header], rows))


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


def _vector(key: str, values) -> str:
    return key + " " + " ".join(_fmt(v) for v in np.atleast_1d(values))


def write_classifier(classifier: TrainedClassifier, path) -> None:
    c = classifier
    lines = [MODEL_FORMAT_TAG, _vector("grid", c.grid.points)]
    if isinstance(c, RKCClassifier):
        lines += ["kind rkc", _vector("points", c.points), _vector("alphas", c.alphas)]
        lines += [_vector("midpoint", c.midpoint), _vector("log_prior_odds", c.log_prior_odds)]
    elif isinstance(c, KNNClassifier):
        lines += ["kind knn", f"k {c.k}", f"metric {KNN_METRIC}", _vector("labels", c.train_labels)]
        lines += [_vector("curve", row) for row in c.train_curves]
    elif isinstance(c, CentroidClassifier):
        lines += ["kind centroid", f"order {c.order}", _vector("psi", c.psi_curve)]
        lines += [_vector("proj0", c.proj0), _vector("proj1", c.proj1)]
    else:
        raise TypeError(f"cannot persist {type(c).__name__}")
    write_lines(path, lines)


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
        elif key in fields:
            raise DatasetFormatError(f"{path}: repeated key {key!r}")
        else:
            fields[key] = rest.split()
    try:
        grid = Grid(np.array([float(v) for v in fields["grid"]]))
        kind = fields["kind"][0]
        if kind not in _MODEL_KEYS:
            raise DatasetFormatError(f"{path}: unknown classifier kind {kind!r}")
        unknown = sorted({*fields, *(["curve"] if curves else [])} - _MODEL_KEYS[kind])
        if unknown:
            raise DatasetFormatError(f"{path}: key(s) {', '.join(map(repr, unknown))} not in a {kind} model")
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
            if fields["metric"] != [KNN_METRIC]:
                raise DatasetFormatError(f"{path}: metric {' '.join(fields['metric'])!r} is not {KNN_METRIC}")
            return KNNClassifier(
                grid=grid,
                train_curves=np.array(curves),
                train_labels=np.array([int(v) for v in fields["labels"]]),
                k=int(fields["k"][0]),
            )
        return CentroidClassifier(
            grid=grid,
            psi_curve=np.array([float(v) for v in fields["psi"]]),
            proj0=float(fields["proj0"][0]),
            proj1=float(fields["proj1"][0]),
            order=int(fields["order"][0]),
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise DatasetFormatError(f"{path}: malformed model file ({exc})") from exc


# every key a plan may hold, with its parser
_PLAN_KEYS = {
    "models": lambda text: tuple(text.split()),
    "methods": lambda text: tuple(text.split()),
    "sizes": lambda text: tuple(map(int, text.split())),
    "k_grid": lambda text: tuple(map(int, text.split())),
    **dict.fromkeys(_INTEGER_MINIMA, int),
}


def read_plan(path) -> ExperimentPlan:
    """Parse a plain-text experiment plan (INI, one [plan] section)."""
    with open(path, "r", encoding="utf-8") as fh:
        parser = _parse_ini(fh.read(), str(path))
    if not parser.has_section("plan"):
        raise DatasetFormatError(f"{path}: missing [plan] section")
    kwargs = _read_section(parser["plan"], f"{path}: [plan]", _PLAN_KEYS, required=("models", "sizes"))
    try:
        return ExperimentPlan(**kwargs)
    except ValueError as exc:
        raise DatasetFormatError(f"{path}: bad plan value ({exc})") from exc


def write_report(report: RunReport, path) -> None:
    rows = (
        f"{e.model},{e.n},{e.method},{e.runs},{e.mean_accuracy:.6f},{e.sd_accuracy:.6f},"
        f"{'' if e.mean_param is None else format(e.mean_param, '.6g')},{e.failed_runs}"
        for e in report.entries
    )
    write_lines(path, chain([REPORT_HEADER], rows))


def write_histogram(hist: HistogramReport, path) -> None:
    write_lines(path, chain(["t,count"], (f"{float(t)!r},{c}" for t, c in zip(hist.grid.points, hist.counts))))
