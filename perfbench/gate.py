"""Correctness gate: dataset digests, report structure and reference report rows.

Every run first executes its workload's reference plan (plan seed
``REFERENCE_SEED``, one run per (model, n) cell) and compares it with
``reference.json``, recorded at the commit that introduced the benchmark:

- the SHA-256 digest of every dataset the plan generates (curves as float64,
  labels as int64) must match exactly, because per-curve streams are a
  bit-exact contract;
- every report row must match: ``runs`` and ``failed_runs`` exactly,
  ``mean_d`` within ``PARAM_TOL`` and ``mean_accuracy`` / ``sd_accuracy``
  within ``ACC_TOL``.  The report prints six decimals; the accuracy margin
  also admits one test curve decided the other way in one run at the
  smallest test size (500 curves, 0.002), which reordered floating-point
  arithmetic in an equivalent faster path can cause for a curve lying on
  the decision boundary.

Every timed plan, whatever its seed, is checked for structure: each
(model, n, method) row is present, ``runs + failed_runs`` equals the runs
requested, and a row with successful runs has a mean accuracy in
(``MIN_ACCURACY``, 1]; every model of every workload is far better than a
coin, so a value at or below it means the classifier is broken.

A problem counts the affected (run, method) pairs as failed.

Run ``python3 perfbench/gate.py --record`` with ``src`` on ``PYTHONPATH`` to
write ``reference.json`` from the checked-out program.  Re-recording replaces
the reference, so a change that claims the same outputs must not do it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
import threading
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Workload

REFERENCE_PATH = Path(__file__).with_name("reference.json")
ACC_TOL = 0.0025
PARAM_TOL = 1e-6
MIN_ACCURACY = 0.5


def read_report(path) -> list[dict]:
    """Rows of a bench report CSV with numeric fields converted."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["n"] = int(row["n"])
        row["runs"] = int(row["runs"])
        row["failed_runs"] = int(row["failed_runs"])
        row["mean_accuracy"] = float(row["mean_accuracy"])
        row["sd_accuracy"] = float(row["sd_accuracy"])
        row["mean_d"] = float(row["mean_d"]) if row["mean_d"] else None
    return rows


def check_rows(rows, workload: Workload, runs: int) -> tuple[int, list[str]]:
    """Failed (run, method) pairs and problems of one plan's report."""
    by_key = {(r["model"], r["n"], r["method"]): r for r in rows}
    failed, problems = 0, []
    expected = [(m, n, meth) for m in workload.models for n in workload.sizes for meth in workload.methods]
    for key in expected:
        row = by_key.pop(key, None)
        if row is None:
            problems.append(f"row {key} missing")
            failed += runs
        elif row["runs"] + row["failed_runs"] != runs:
            problems.append(f"row {key}: runs + failed_runs != {runs}")
            failed += runs
        elif row["runs"] > 0 and not MIN_ACCURACY < row["mean_accuracy"] <= 1.0:
            problems.append(f"row {key}: mean_accuracy {row['mean_accuracy']} out of range")
            failed += runs
        else:
            failed += row["failed_runs"]
    problems.extend(f"unexpected row {key}" for key in by_key)
    return failed, problems


def dataset_digest(dataset) -> str:
    import numpy as np

    h = hashlib.sha256()
    h.update(np.ascontiguousarray(dataset.curves, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(dataset.labels, dtype=np.int64).tobytes())
    return h.hexdigest()


class DigestRecorder:
    """Digests every dataset ``rkfda.bench`` generates while installed."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self._lock = threading.Lock()

    def __enter__(self):
        import rkfda.bench

        self._module = rkfda.bench
        self._original = original = rkfda.bench.gen_model_dataset

        def recording(model, n, grid, seed):
            dataset = original(model, n, grid, seed)
            key = f"{model.id}/" + ("-".join(map(str, seed)) if isinstance(seed, tuple) else str(seed))
            digest = dataset_digest(dataset)
            with self._lock:
                self.digests[key] = digest
            return dataset

        rkfda.bench.gen_model_dataset = recording
        return self

    def __exit__(self, *exc):
        self._module.gen_model_dataset = self._original


def compare_reference(rows, digests: dict, reference: dict, workload: Workload) -> tuple[int, list[str]]:
    """Failed pairs and problems of the reference plan against ``reference``."""
    problems = []
    bad_models = set()
    for key in sorted(set(reference["digests"]) | set(digests)):
        if reference["digests"].get(key) != digests.get(key):
            problems.append(f"dataset digest differs: {key}")
            bad_models.add(key.split("/")[0])
    ref_rows = {(r["model"], r["n"], r["method"]): r for r in reference["rows"]}
    got_rows = {(r["model"], r["n"], r["method"]): r for r in rows}
    bad_rows = set()
    for key in sorted(set(ref_rows) | set(got_rows)):
        row, ref = got_rows.get(key), ref_rows.get(key)
        if row is None or ref is None or not _row_matches(row, ref):
            problems.append(f"report row differs from reference: {key}")
            bad_rows.add(key)
    failed = sum(
        1
        for m in workload.models
        for n in workload.sizes
        for meth in workload.methods
        if m in bad_models or (m, n, meth) in bad_rows
    )
    return failed, problems


def _row_matches(row: dict, ref: dict) -> bool:
    if (row["runs"], row["failed_runs"]) != (ref["runs"], ref["failed_runs"]):
        return False
    if (row["mean_d"] is None) != (ref["mean_d"] is None):
        return False
    if row["mean_d"] is not None and abs(row["mean_d"] - ref["mean_d"]) > PARAM_TOL:
        return False
    return all(abs(row[f] - ref[f]) <= ACC_TOL for f in ("mean_accuracy", "sd_accuracy"))


def run_reference_plan(workload: Workload, workdir: Path) -> tuple[list[dict], dict]:
    """Report rows and dataset digests of the workload's reference plan."""
    from rkfda import cli

    plan = workdir / f"{workload.name}-reference.ini"
    report = workdir / f"{workload.name}-reference.csv"
    plan.write_text(workload.plan_text(REFERENCE_SEED, runs=1), encoding="utf-8")
    with DigestRecorder() as recorder:
        code = cli.main(["bench", "--plan", str(plan), "--out", str(report)])
    if code != 0:
        raise RuntimeError(f"reference plan of {workload.name} exited with {code}")
    return read_report(report), recorder.digests


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _record(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        rows, digests = run_reference_plan(workload, workdir)
        out["workloads"][workload.name] = {"digests": digests, "rows": rows}
    REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/gate.py --record")
    _record(Path.cwd() / ".perfbench_out")
