"""Spans around rkfda's layer calls, and the per-layer metrics taken from them.

Only the traced run installs these wrappers; timing runs call the program
untouched.  Each wrapper replaces a function under the name its caller looks
up at call time, so the span sits at the boundary between two layers.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  ``rkfda.kernels.solve_spd`` is the name
# ``mahalanobis_psi`` resolves on every call; ``rkfda.classify`` binds its own.
TARGETS = (
    ("rkfda.bench", "gen_model_dataset", "simulate"),
    ("rkfda.bench", "greedy_select", "select"),
    ("rkfda.bench", "train_rkc", "classify.fit.rkc"),
    ("rkfda.bench", "train_knn", "classify.fit.knn"),
    ("rkfda.bench", "centroid_classifiers", "classify.fit.centroid"),
    ("rkfda.bench", "error_rate", "classify.predict"),
    ("rkfda.select", "pooled_cov", "estimate"),
    ("rkfda.select", "class_moments", "estimate"),
    ("rkfda.select", "gram", "kernels.gram"),
    ("rkfda.select", "mahalanobis_psi", "kernels.psi"),
    ("rkfda.classify", "pooled_cov", "estimate"),
    ("rkfda.classify", "class_moments", "estimate"),
    ("rkfda.classify", "gram", "kernels.gram"),
    ("rkfda.classify", "solve_spd", "kernels.spd"),
    ("rkfda.classify", "discretized_eigen", "kernels.eigen"),
    ("rkfda.kernels", "solve_spd", "kernels.spd"),
)

# Per-layer metric name -> unit.  Counts and busy times are per protocol run
# of the traced plans, so they do not depend on how many plans fit the window.
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.catalog_s": "s",
    "simulate.calls": "1/run",
    "simulate.curves": "1/run",
    "simulate.busy_s": "s/run",
    "simulate.us_per_curve": "us",
    "estimate.calls": "1/run",
    "estimate.busy_s": "s/run",
    "kernels.spd_solves": "1/run",
    "kernels.spd_busy_s": "s/run",
    "kernels.spd_us_per_solve": "us",
    "kernels.ridged_frac": "fraction",
    "kernels.singular": "1/run",
    "kernels.eigen_calls": "1/run",
    "kernels.eigen_busy_s": "s/run",
    "select.calls": "1/run",
    "select.busy_s": "s/run",
    "select.ms_per_call": "ms",
    "select.points": "1/run",
    "classify.rkc_fits": "1/run",
    "classify.fit_busy_s": "s/run",
    "classify.centroid_fit_busy_s": "s/run",
    "classify.predict_calls": "1/run",
    "classify.predict_curves": "1/run",
    "classify.predict_busy_s": "s/run",
    "classify.knn_predict_busy_s": "s/run",
    "bench.self_s": "s/run",
    "bench.method_runs": "1/run",
    "bench.failed": "1/run",
    "bench.evals_per_kept": "ratio",
    "trace.overhead_frac": "fraction",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_key: tuple | None
    detail: dict = field(default_factory=dict)


def _detail(name: str, args, result) -> dict:
    """What a span counts beyond its duration, read from its call."""
    if name == "simulate":
        return {"curves": int(args[1])}
    if name == "select":
        return {"points": len(result)}
    if name == "kernels.spd":
        return {"ridged": bool(result.ridge > 0.0)}
    if name == "classify.predict":
        return {"curves": int(args[1].size), "knn": type(args[0]).__name__ == "KNNClassifier"}
    return {}


class Tracer:
    """Installs the wrappers, keeps spans in memory, restores the program."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        local = self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if name == "simulate" and len(args) > 3 and isinstance(args[3], tuple):
                # bench keys each run's streams (plan seed, model, n, run, stream)
                local.run_key = args[3][:4]
            parent = stack[-1] if stack else None
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                detail = {"error": type(exc).__name__}
                raise
            else:
                detail = _detail(name, args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(name, start, end, parent, getattr(local, "run_key", None), detail)
                with self._lock:
                    self.spans[index] = span

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "run_key": list(s.run_key) if s.run_key else None,
                            **s.detail,
                        }
                    )
                    + "\n"
                )


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, runs: int, wall_s: float, method_runs: int, failed: int) -> dict:
    """Per-layer metrics from the spans of ``runs`` protocol runs.

    ``wall_s`` is the traced plans' wall time, ``method_runs`` the (run,
    method) pairs they attempted and ``failed`` the pairs that failed.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    select_self = sum(
        s.end - s.start - child_time[i] for i, s in enumerate(spans) if s.name == "select"
    )

    def pick(prefix):
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    def busy(group):
        return sum(s.end - s.start for s in group)

    simulate = pick("simulate")
    estimate = pick("estimate")
    spd = pick("kernels.spd")
    eigen = pick("kernels.eigen")
    select = pick("select")
    fits = pick("classify.fit")
    predict = pick("classify.predict")
    curves = sum(s.detail.get("curves", 0) for s in simulate)
    top_level = [(s.start, s.end) for s in spans if s.parent is None]
    kept = method_runs - failed
    return {
        "simulate.calls": len(simulate) / runs,
        "simulate.curves": curves / runs,
        "simulate.busy_s": busy(simulate) / runs,
        "simulate.us_per_curve": 1e6 * busy(simulate) / curves if curves else 0.0,
        "estimate.calls": len(estimate) / runs,
        "estimate.busy_s": busy(estimate) / runs,
        "kernels.spd_solves": len(spd) / runs,
        "kernels.spd_busy_s": busy(spd) / runs,
        "kernels.spd_us_per_solve": 1e6 * busy(spd) / len(spd) if spd else 0.0,
        "kernels.ridged_frac": sum(s.detail.get("ridged", False) for s in spd) / len(spd)
        if spd
        else 0.0,
        "kernels.singular": sum(s.detail.get("error") == "SingularMatrixError" for s in spd)
        / runs,
        "kernels.eigen_calls": len(eigen) / runs,
        "kernels.eigen_busy_s": busy(eigen) / runs,
        "select.calls": len(select) / runs,
        "select.busy_s": select_self / runs,
        "select.ms_per_call": 1e3 * busy(select) / len(select) if select else 0.0,
        "select.points": sum(s.detail.get("points", 0) for s in select) / runs,
        "classify.rkc_fits": len(pick("classify.fit.rkc")) / runs,
        "classify.fit_busy_s": busy(fits) / runs,
        "classify.centroid_fit_busy_s": busy(pick("classify.fit.centroid")) / runs,
        "classify.predict_calls": len(predict) / runs,
        "classify.predict_curves": sum(s.detail.get("curves", 0) for s in predict) / runs,
        "classify.predict_busy_s": busy(predict) / runs,
        "classify.knn_predict_busy_s": busy(s for s in predict if s.detail.get("knn")) / runs,
        "bench.self_s": (wall_s - _covered(top_level)) / runs,
        "bench.method_runs": method_runs / runs,
        "bench.failed": failed / runs,
        "bench.evals_per_kept": len(predict) / kept if kept else 0.0,
    }
