"""Self-tests of the benchmark: ``python -m pytest perfbench`` from the repo root.

They start the benchmark as a user would, with one plan per phase, so the
whole file takes a minute or two.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
from run import E2E_UNITS
from tracing import LAYER_UNITS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
_outputs: dict = {}


def bench(workload: str, trace: int, root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def result(workload: str, trace: int) -> dict:
    if (workload, trace) not in _outputs:
        code, lines = bench(workload, trace)
        assert code == 0, lines
        _outputs[workload, trace] = json.loads(lines[-1])
    return _outputs[workload, trace]


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    units = LAYER_UNITS if trace else E2E_UNITS
    assert {name: m["unit"] for name, m in out["metrics"].items()} == units
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_large_n_never_selects_or_solves():
    metrics = result("large-n", 1)["metrics"]
    assert metrics["select.calls"]["value"] == 0
    assert metrics["kernels.spd_solves"]["value"] == 0
    assert metrics["simulate.calls"]["value"] == 3


def test_gate_fails_on_an_altered_reference_digest():
    reference = gate.load_reference()["workloads"]["large-n"]
    workload = WORKLOADS["large-n"]
    assert gate.compare_reference(reference["rows"], reference["digests"], reference, workload) == (0, [])
    altered = copy.deepcopy(reference)
    key = sorted(altered["digests"])[0]
    altered["digests"][key] = "0" * 64
    failed, problems = gate.compare_reference(reference["rows"], reference["digests"], altered, workload)
    model = key.split("/")[0]
    assert failed == len(workload.sizes) * len(workload.methods)
    assert problems == [f"dataset digest differs: {key}"] and model in workload.models


def test_command_exits_nonzero_when_the_gate_fails(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(ref_path.read_text())
    digests = reference["workloads"]["large-n"]["digests"]
    first = sorted(digests)[0]
    digests[first] = digests[first][::-1]
    ref_path.write_text(json.dumps(reference))
    code, lines = bench("large-n", 0, root=tmp_path)
    assert code == 1
    last = json.loads(lines[-1])
    assert last["correct"] is False and last["failed"] > 0


def test_command_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, lines = bench("protocol", 0, root=tmp_path)
    assert code != 0 and not any(line.startswith("{") for line in lines)
