"""rkfda protocol benchmark: one command, one workload (or all), one seed.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; rkfda is imported from ``src``.  Every
process this starts gets an environment without ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``, ``MKL_NUM_THREADS``, ``RKFDA_THREADS`` and
``PYTHONDONTWRITEBYTECODE``, so it measures the default threading and
bytecode caching a user gets, whatever the calling shell sets.

``setup_s`` is the median of several process starts, each timed from before
the spawn to the child's READY line (interpreter, ``import rkfda.cli``,
catalog load, plan read): the start of the worker that runs the workload,
and one probe after each of its timed plans (see ``worker.py``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when the correctness gate
failed and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import THREAD_VARS
from workloads import WORKLOADS, plan_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
DEADLINE_S = 170.0
E2E_UNITS = {"runs_per_s": "runs/s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy_mean": "fraction"}


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("PYTHONDONTWRITEBYTECODE",)}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args: list, deadline: float) -> tuple[float, dict, dict | None]:
    """Start ``worker.py``; return seconds to READY, the READY and RESULT objects."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )

    def kill():
        # the whole group: the worker and any set-up probe it has started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(deadline - started, 0.0), kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not line.startswith("READY "):
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    results = [r for r in rest if r.startswith("RESULT ")]
    return ready_s, json.loads(line[6:]), json.loads(results[-1][7:]) if results else None


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"{name}.ini").write_text(workload.plan_text(plan_seed(seed, 0)), encoding="utf-8")
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(trace), "--workdir", str(WORKDIR)]
    ready_s, ready, result = run_child(args, deadline)
    if result is None:
        raise BenchError(f"worker for {name} printed no result")
    samples = [(ready_s, ready)] + [tuple(s) for s in result["setup_samples"]]
    if trace:
        metrics = {
            "setup.import_s": statistics.median(r["import_s"] for _, r in samples),
            "setup.catalog_s": statistics.median(r["catalog_s"] for _, r in samples),
            **result["layers"],
        }
    else:
        metrics = {
            "runs_per_s": result["runs_per_s"],
            "setup_s": statistics.median(s for s, _ in samples),
            "peak_rss_mb": result["peak_rss_mb"],
            "accuracy_mean": result["accuracy_mean"],
        }
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "plans": len(result["plan_wall_s"]),
        "env": result["env"],
        "problems": result["problems"],
    }


def report(name: str, seed: int, out: dict, units: dict) -> None:
    """Human-readable lines: every metric by name and unit, the environment."""
    print(f"{name} seed={seed}: {out['plans']} plans, correct={out['correct']}")
    for metric, value in out["metrics"].items():
        print(f"  {metric:30s} {value:.6g} {units[metric]}")
    frac = out["failed"] / out["attempted"]
    print(f"  {'failed_run_frac':30s} {frac:.6g} fraction ({out['failed']} of {out['attempted']} (run, method) pairs)")
    print(f"  env {json.dumps(out['env'], sort_keys=True)}")
    for problem in out["problems"]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rkfda" / "__init__.py").is_file():
        print(f"rkfda sources not found under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.trace:
        from tracing import LAYER_UNITS as units
    else:
        units = E2E_UNITS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = time.perf_counter()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, args.trace, started + DEADLINE_S * len(names))
            report(name, args.seed, out, units)
            prefix = f"{name}/" if len(names) > 1 else ""
            combined["correct"] &= out["correct"]
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
            combined["metrics"].update(
                {prefix + m: {"value": v, "unit": units[m]} for m, v in out["metrics"].items()}
            )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
