"""Short end-to-end runs of the benchmark command, and its declared metrics."""
import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH

import layers
import run
from workloads import WORKLOADS

ROOT = BENCH.parent


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [("fixed-point", "0"), ("ablation", "0"),
                                            ("vp-clutter", "0"), ("vp-clutter", "1")])
def test_workload_runs_clean(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = layers.PER_LAYER if trace == "1" else run.END_TO_END
    assert list(result["metrics"]) == list(declared)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = _run("--workload", "vp-clutter", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
