"""Tests of the benchmark itself, at smoke size: ``python3 -m pytest bench -q``.

They run every workload end to end in a fresh process (untraced and
traced), check that the metric names agree with BENCHMARK.json, show
that each workload's output check fails on a corrupted output, and show
that the benchmark refuses to run without the sources next to it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Timer  # noqa: E402

run.import_sga()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in SPEC["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def _outputs(name, workdir, seed=5):
    workload = WORKLOADS[name](smoke=True)
    inputs = workload.setup(seed, str(workdir))
    outputs = workload.run_pass(inputs, 0, Timer())
    attempted, failed = workload.check(inputs, outputs)
    assert attempted >= 1 and failed == 0
    return workload, inputs, outputs


def test_roundtrip_check_detects_corruption(tmp_path):
    workload, inputs, outputs = _outputs("roundtrip", tmp_path)
    bad = copy.deepcopy(outputs)
    bad[0]["failures"].append("blade unit failed the outer round trip")
    assert workload.check(inputs, bad)[1] == 1
    bad = copy.deepcopy(outputs)
    bad[1]["outer_checked"] -= 1
    assert workload.check(inputs, bad)[1] == 1
    assert workload.check(inputs, [ValueError("boom")] + outputs[1:])[1] == 32


def test_tables_check_detects_corruption(tmp_path):
    workload, inputs, output = _outputs("tables", tmp_path)
    flipped = copy.copy(output)
    flipped.stdout = output.stdout.replace("| standard | + |", "| standard | - |", 1)
    assert flipped.stdout != output.stdout
    assert workload.check(inputs, flipped) == (27, 9)
    failed_exit = copy.copy(output)
    failed_exit.code = 1
    assert workload.check(inputs, failed_exit) == (27, 27)


def test_identities_check_detects_corruption(tmp_path):
    workload, inputs, outputs = _outputs("identities", tmp_path)
    bad = copy.deepcopy(outputs)
    bad[0].stdout = bad[0].stdout.replace("PASS  ", "FAIL  ", 1)
    assert workload.check(inputs, bad)[1] == 5  # exit code 0 with a FAIL line: the whole suite
    bad[0].code = 1
    assert workload.check(inputs, bad)[1] == 1
    bad = copy.deepcopy(outputs)
    bad[1].stdout = "\n".join(bad[1].stdout.splitlines()[1:])  # a missing check
    assert workload.check(inputs, bad)[1] == 16


def test_build_io_check_detects_corruption(tmp_path):
    workload, inputs, runs = _outputs("build-io", tmp_path)
    bad = copy.deepcopy(runs)
    coeffs = json.loads(bad[("C", "blades")].stdout)
    first = next(iter(coeffs))
    coeffs[first] = {"re": ["7", "0"], "im": ["0", "0"]}
    bad[("C", "blades")].stdout = json.dumps(coeffs)
    assert workload.check(inputs, bad)[1] == 1
    bad = copy.deepcopy(runs)
    bad["build"].code = 2
    del bad[("pseudoscalar", "outer")]
    assert workload.check(inputs, bad)[1] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "roundtrip", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
