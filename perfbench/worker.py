"""One workload in one process: set-up, correctness gate, then timed plans.

``run.py`` starts this with a cleaned environment.  It prints ``READY`` and
the set-up split once rkfda is imported, the catalog loaded and the plan
read; with ``--probe`` it stops there, as a set-up sample.  Otherwise it runs
the workload's reference plan through the correctness gate, then the timed
plans through ``rkfda.cli.main(["bench", ...])``, each followed by a set-up
sample, and prints ``RESULT`` with a JSON object as its last line.

Untraced (``--trace 0``) it runs plans in a closed loop for ``--seconds``.
Traced (``--trace 1``) it runs plans untraced for half of that, then runs
the same plans again with the layer wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Workload, plan_seed

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "RKFDA_THREADS")
# Every run times at least these many plans, and accuracy_mean averages their
# rows, so it is fixed for a seed and averages enough runs to be steady.
MIN_PLANS = 3


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def time_to_ready(argv: list) -> tuple[float, dict]:
    """Start this script with ``argv``; seconds to its READY line, and that line."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or not line.startswith("READY "):
        raise RuntimeError(f"set-up probe exited with {code}")
    return ready_s, json.loads(line[6:])


class PlanRunner:
    """Writes, times and checks the timed plans of one run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, probe_argv: list):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.probe_argv = probe_argv
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy_rows: list[dict] = []
        self.setup_samples: list[tuple[float, dict]] = []

    def check_reference(self) -> None:
        """Run the reference plan through the correctness gate."""
        w = self.workload
        rows, digests = gate.run_reference_plan(w, self.workdir)
        reference = gate.load_reference()["workloads"][w.name]
        failed, problems = gate.compare_reference(rows, digests, reference, w)
        self.attempted += len(w.models) * len(w.sizes) * len(w.methods)
        self.failed += failed
        self.problems += problems

    def run(self, index: int) -> float:
        """Wall time of plan ``index``, from plan start to report written."""
        from rkfda import cli

        w = self.workload
        plan = self.workdir / f"{w.name}-timed.ini"
        report = self.workdir / f"{w.name}-timed.csv"
        plan.write_text(w.plan_text(plan_seed(self.seed, index)), encoding="utf-8")
        started = time.perf_counter()
        code = cli.main(["bench", "--plan", str(plan), "--out", str(report)])
        wall = time.perf_counter() - started
        pairs = w.runs_per_plan * len(w.methods)
        self.attempted += pairs
        if code != 0:
            self.failed += pairs
            self.problems.append(f"plan {index} exited with {code}")
            return wall
        rows = gate.read_report(report)
        failed, problems = gate.check_rows(rows, w, w.runs)
        self.failed += failed
        self.problems.extend(f"plan {index}: {p}" for p in problems)
        if index < MIN_PLANS:
            self.accuracy_rows += rows
        return wall


def closed_loop(runner: PlanRunner, seconds: float) -> list[float]:
    """Plan walls of plans 0, 1, ..., each followed by one set-up sample.

    Stops after ``MIN_PLANS`` plans, once the next plan and sample would
    likely end past ``seconds``.  Interleaving spreads the set-up samples
    over the whole run.
    """
    walls, rounds = [], []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        walls.append(runner.run(len(walls)))
        runner.setup_samples.append(time_to_ready(runner.probe_argv))
        rounds.append(time.perf_counter() - round_started)
        late = time.perf_counter() - started + statistics.median(rounds) > seconds
        if late and len(walls) >= MIN_PLANS:
            return walls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    started = time.perf_counter()
    import rkfda.cli  # noqa: F401  (the entry point, with every layer it imports)
    import rkfda.io
    from rkfda import builtin_catalog

    imported = time.perf_counter()
    builtin_catalog()
    loaded = time.perf_counter()
    rkfda.io.read_plan(args.workdir / f"{workload.name}.ini")
    ready = {"import_s": imported - started, "catalog_s": loaded - imported}
    print("READY " + json.dumps(ready), flush=True)
    if args.probe:
        return 0

    result = {"env": environment()}
    probe_argv = ["--workload", workload.name, "--seed", str(args.seed), "--seconds", "0"]
    probe_argv += ["--workdir", str(args.workdir), "--probe"]
    runner = PlanRunner(workload, args.seed, args.workdir, probe_argv)
    runner.check_reference()
    if args.trace == 0:
        walls = closed_loop(runner, args.seconds)
        result["plan_wall_s"] = walls
        result["runs_per_s"] = statistics.median(workload.runs_per_plan / w for w in walls)
        accs = [r["mean_accuracy"] for r in runner.accuracy_rows if r["runs"] > 0]
        result["accuracy_mean"] = statistics.fmean(accs) if accs else 0.0
    else:
        untraced = closed_loop(runner, args.seconds / 2)
        before = (runner.attempted, runner.failed)
        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run(i) for i in range(len(untraced))]
        finally:
            tracer.remove()
        tracer.write(args.workdir / f"spans-{workload.name}-{args.seed}.jsonl")
        runs = len(traced) * workload.runs_per_plan
        layers = layer_metrics(
            tracer.spans,
            runs=runs,
            wall_s=sum(traced),
            method_runs=runner.attempted - before[0],
            failed=runner.failed - before[1],
        )
        layers["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        result["layers"] = layers
        result["plan_wall_s"] = untraced + traced
    result["setup_samples"] = runner.setup_samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["problems"] = runner.problems
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
